"""Exact brute-force and polynomial reference solvers.

These establish ground-truth optima for small instances so the reduction
laws can be checked end to end.  The three graph-level solvers
(multiterminal cut, face separation, cycle-hitting set) and the k-point
fence solver share one search, :func:`_cheapest_feasible`, in combinations
order, pruned by upward-closed feasibility: a superset of a feasible set
is feasible, so a subtree whose largest set fails is skipped, and the first
feasible subset found is the one plain enumeration finds.  It weighs an
edge by its weight, a face-separation group 2, a vertex or a disk 1.
The two-point isolation solver and the terminal-pair cut solver are
polynomial and handle the synthesized instances directly; the two-point
solver searches the chain-contracted kernel
(:func:`~disklab.arrangements.contract`), on which sound instances keep
only a few dozen junctions.
Meters bound the work (:class:`~disklab.base.Refused` when spent): the
intersection graph's edge meter, and a search meter of ``SEARCH_ALLOWANCE``
units a search.  A candidate test costs one unit plus one for each edge,
group, vertex or disk of the instance; a two-point heap pop costs one.  A
well-formed instance with no solution raises :class:`Rejected`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .arrangements import (
    CenterIndex,
    DiskInstance,
    check_points_uncovered,
    kernel_separation,
    point_kernel,
    unit_disk_graph,
    verify_acc,
)
from .base import Malformed, Meter, Rejected
from .graphs import (
    Graph,
    MultiterminalInstance,
    SubdivisionInstance,
    edge_disjoint_paths,
    fvs_solution_ok,
    multiterminal_solution_ok,
    residual_sink_side,
    subdivision_solution_ok,
)


SEARCH_ALLOWANCE = 4_000_000
NO_FENCE = "no subset of the disks separates the marked points"


@dataclass
class OptimumCertificate:
    """A solved instance: the optimum value, one witness, and how it was obtained."""

    problem: str
    optimum: int
    witness: List[object] = field(default_factory=list)
    method: str = "enumeration"
    detail: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graph-level problems
# ---------------------------------------------------------------------------

def _feasible_subsets(n: int, ok: Callable[[Tuple[int, ...]], bool]) -> Iterator[Tuple[int, ...]]:
    """Every index tuple ``t`` over ``range(n)`` with ``ok(t)``, in
    ``itertools.combinations`` order (by size, then lexicographic), for an
    upward-closed ``ok``: a superset of a feasible set is feasible.  The
    full set is tested first, so an infeasible instance yields nothing at once.
    """
    if ok(tuple(range(n))):
        for size in range(n + 1):
            yield from _feasible_of_size(n, ok, size)


def _feasible_of_size(
    n: int, ok: Callable[[Tuple[int, ...]], bool], size: int,
    prefix: Tuple[int, ...] = (), start: int = 0,
) -> Iterator[Tuple[int, ...]]:
    """The ``size``-element tuples of :func:`_feasible_subsets` that extend
    ``prefix`` by indices from ``start`` on, where ``ok(prefix + range(start,
    n))`` holds, in order, by a depth-first walk of the combinations tree.
    Before it descends at index ``c`` it tests ``prefix + range(c, n)``, the
    largest set below; when that fails, no leaf below ``c``, nor any to its
    right, can pass, so the level stops.  The first branch of a level is not
    tested again: its largest set is the one tested before descending to
    that level.  It recurses by module name: a nested function calling
    itself would be a reference cycle.
    """
    if size == 0:
        if start == n or ok(prefix):
            yield prefix
        return
    for c in range(start, n - size + 1):
        if c > start and not ok(prefix + tuple(range(c, n))):
            return
        yield from _feasible_of_size(n, ok, size - 1, prefix + (c,), c + 1)


def _cheapest_feasible(weights: Sequence[int], ok: Callable[[Tuple[int, ...]], bool],
                       infeasible: str = "no subset is feasible") -> Tuple[int, Tuple[int, ...]]:
    """The least weight of a subset of ``range(len(weights))`` passing the
    upward-closed ``ok``, and the first such in :func:`_feasible_subsets`
    order; :class:`Rejected` with ``infeasible`` when none does.  It stops
    once the best weighs at most ``min(weights)`` times the current size, as
    no later, larger subset can be strictly cheaper.  Each test of ``ok`` is
    charged ``1 + len(weights)`` units to a search meter."""
    meter = Meter("search", SEARCH_ALLOWANCE)

    def tested(combo: Tuple[int, ...]) -> bool:
        meter.charge(1 + len(weights))
        return ok(combo)

    floor = min(weights, default=0)
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    for combo in _feasible_subsets(len(weights), tested):
        w = sum(weights[i] for i in combo)
        if best is None or w < best[0]:
            best = (w, combo)
        if best[0] <= floor * len(combo):
            break
    if best is None:
        raise Rejected(infeasible)
    return best


def brute_min_multiterminal(inst: MultiterminalInstance) -> OptimumCertificate:
    """Minimum total weight of deleted edges leaving all terminals in
    pairwise distinct components, by enumeration in combinations order,
    pruned by upward-closed feasibility (:func:`_cheapest_feasible`)."""
    w, combo = _cheapest_feasible([inst.weight(e) for e in range(len(inst.graph.edges))],
                                  lambda t: multiterminal_solution_ok(inst, t))
    return OptimumCertificate(problem="multiterminal-cut", optimum=w, witness=list(combo))


def brute_min_subdivision(inst: SubdivisionInstance) -> OptimumCertificate:
    """Minimum group-counted mass of kept edges that separate the marked
    faces, by enumeration of kept groups in combinations order, pruned by
    upward-closed feasibility (:func:`_cheapest_feasible`).  Only whole
    groups are worth keeping, and each used group counts two regardless of
    its fragment count."""
    groups = inst.edge_groups()

    def kept(combo: Tuple[int, ...]) -> List[int]:
        return [e for gi in combo for e in groups[gi]]

    mass, combo = _cheapest_feasible([2] * len(groups),
                                     lambda t: subdivision_solution_ok(inst, kept(t)))
    return OptimumCertificate(problem="face-separation", optimum=mass, witness=list(combo),
                              detail={"kept_edges": sorted(kept(combo))})


def brute_min_fvs(g: Graph) -> OptimumCertificate:
    """Minimum vertex set meeting every cycle, by enumeration of removed
    vertex positions in combinations order, pruned by upward-closed
    feasibility (:func:`_cheapest_feasible`) over :func:`fvs_solution_ok`."""
    size, combo = _cheapest_feasible([1] * len(g.vertices), lambda t: fvs_solution_ok(g, t))
    return OptimumCertificate(problem="cycle-hitting-set", optimum=size,
                              witness=[g.vertices[i] for i in combo])


# ---------------------------------------------------------------------------
# disk-level problems
# ---------------------------------------------------------------------------

def brute_min_isolation_two_points(instance: DiskInstance) -> OptimumCertificate:
    """Exact minimum fence for an instance with exactly two marked points.

    The union of a chosen set separates the points iff the set's
    intersection graph contains a cycle of odd crossing parity against the
    half-open rays from the two points, so the optimum is the shortest odd
    cycle of the full intersection graph — polynomial, no enumeration.

    The search runs on the chain-contracted kernel (:func:`contract`),
    where a cycle is a cyclic sequence of whole chains, as long in disks as
    the sum of their ``len(inner) + 1`` and as odd as the XOR of their
    signatures.  With no odd cycle, which
    :func:`~disklab.arrangements.kernel_separation` decides first, there is
    no fence, refused before any search.  An odd cycle contains an odd chain,
    and both end junctions of that chain lie on it.  So one Dijkstra over
    the (junction, parity) double cover from the smaller end of each odd
    chain reaches the optimum: from a root on the lightest odd cycle it
    finds an odd closed walk no heavier, which ``_extract_odd_cycle`` cuts
    to a simple odd cycle no heavier either.  Each search stops at the
    best cycle so far; the best cycle then expands to disk ids.  ``detail``
    reports that cycle and the numbers of odd edges, roots searched,
    junctions and chains.

    The graph and its edge meter come before the covered-point check, so a
    graph past its allowance is refused with a point covered too.  Each
    root's heap pops are charged to a search meter when its search ends.
    """
    if len(instance.points) != 2:
        raise Malformed("this solver handles exactly two marked points")
    udg, masks, kernel = point_kernel(instance.centers, instance.radius, instance.points)
    check_points_uncovered(instance.points, udg.index)
    if not all(kernel_separation(kernel, sorted(instance.points)).values()):
        raise Rejected(NO_FENCE)
    chains = kernel.chains
    # a parity against both rays is the XOR of the two mask bits
    odd = [(c.sig ^ c.sig >> 1) & 1 for c in chains]
    adj: Dict[int, List[Tuple[int, int]]] = {j: [] for j in kernel.junctions}
    for k, c in enumerate(chains):
        adj[c.a].append((c.b, k))
        if c.b != c.a:
            adj[c.b].append((c.a, k))

    meter = Meter("search", SEARCH_ALLOWANCE)
    best_len = math.inf
    best: List[Tuple[int, int]] = []
    searched = 0
    for s in sorted({min(c.a, c.b) for c, x in zip(chains, odd) if x}):
        if best_len <= 3:
            break
        searched += 1
        goal = (s, 1)
        dist = {(s, 0): 0}
        prev: Dict[Tuple[int, int], Tuple[Tuple[int, int], int]] = {}
        heap = [(0, s, 0)]
        pops = 0
        while heap:
            d, v, par = heappop(heap)
            pops += 1
            if (v, par) == goal:
                break
            if d > dist[(v, par)]:
                continue
            for w, k in adj[v]:
                state, nd = (w, par ^ odd[k]), d + len(chains[k].inner) + 1
                if nd < dist.get(state, best_len):
                    dist[state] = nd
                    prev[state] = ((v, par), k)
                    heappush(heap, (nd, *state))
        meter.charge(pops)
        if goal in dist:
            walk, state = [], goal
            while state in prev:
                state, k = prev[state]
                walk.append((state[0], k))
            best = _extract_odd_cycle(walk[::-1], odd)
            best_len = sum(len(chains[k].inner) + 1 for _, k in best)
    cycle: List[int] = []
    for v, k in best:
        cycle.append(v)
        c = chains[k]
        cycle.extend(c.inner if c.a == v else reversed(c.inner))
    return OptimumCertificate(
        problem="two-point-isolation",
        optimum=len(cycle),
        witness=sorted(cycle),
        method="parity double cover",
        detail={"cycle": cycle, "odd_edges": sum((m ^ m >> 1) & 1 for m in masks),
                "roots": searched, "junctions": len(kernel.junctions), "chains": len(chains)},
    )


def _extract_odd_cycle(
    walk: List[Tuple[int, int]], odd: Sequence[int]
) -> List[Tuple[int, int]]:
    """A simple odd cycle inside a closed odd walk of (junction, chain)
    steps.  Splicing out an even closed subwalk keeps the parity odd;
    recursing into an odd one shortens the walk.  The junctions end up
    distinct, and then so are the chains (one chain twice between two
    junctions would be even), so the cycle is simple in disks too."""
    while True:
        seen: Dict[int, int] = {}
        for j, (v, _) in enumerate(walk):
            if v in seen:
                break
            seen[v] = j
        else:
            return walk
        i = seen[v]
        sub = walk[i:j]  # closed: it starts and ends at v
        walk = sub if sum(odd[k] for _, k in sub) % 2 else walk[:i] + walk[j:]


def brute_min_isolation(instance: DiskInstance) -> OptimumCertificate:
    """Minimum fence for any number of marked points, by
    :func:`_cheapest_feasible` over the disks: with the marked points
    uncovered, a superset of a fence is a fence.  At least two marked points
    and none covered are checked before any work is charged.  A candidate
    drops the other disks from one kernel (:func:`kernel_separation`).  Use
    the two-point solver for synthesized instances.
    """
    if len(instance.points) < 2:
        raise Malformed("isolation needs at least two marked points")
    sc, r = instance.centers, instance.radius
    check_points_uncovered(instance.points, CenterIndex(sc, r))
    ids, everything = sorted(instance.points), set(range(len(sc.xs)))
    kernel = point_kernel(sc, r, instance.points)[2]

    def fences(combo: Tuple[int, ...]) -> bool:
        return all(kernel_separation(kernel, ids, everything.difference(combo)).values())

    size, combo = _cheapest_feasible([1] * len(sc.xs), fences, NO_FENCE)
    return OptimumCertificate(problem="point-isolation", optimum=size, witness=list(combo))


def brute_min_acc(instance: DiskInstance) -> OptimumCertificate:
    """Minimum number of deleted disks leaving a union with no bounded
    complement region, by subset enumeration over deletions, each charged
    ``1 + n`` units for n disks to a search meter.  Deleting every disk
    leaves an acyclic union, so some size finds one."""
    n = len(instance.centers.xs)
    meter = Meter("search", SEARCH_ALLOWANCE)

    def acyclic(combo: Tuple[int, ...]) -> bool:
        meter.charge(1 + n)
        return verify_acc(instance, combo).ok

    combo = next(c for size in range(n + 1) for c in combinations(range(n), size) if acyclic(c))
    return OptimumCertificate(problem="acyclic-cover", optimum=len(combo), witness=list(combo))


def min_terminal_pair_cut(instance: DiskInstance) -> OptimumCertificate:
    """Minimum number of intersection-graph edges whose deletion disconnects
    the two terminal disks: by Menger's theorem, the number of edge-disjoint
    paths between them (:func:`~disklab.graphs.edge_disjoint_paths`).

    The witness lists the disk-id pairs across the flow's sink side
    (:func:`~disklab.graphs.residual_sink_side`), read from the sink side's
    adjacency lists and sorted into ``udg.edges`` order.  Disconnected
    terminals answer 0 with an empty witness.
    """
    terminals = instance.meta.get("terminal_disks", [])
    if len(terminals) != 2:
        raise Malformed("terminal-pair cut needs exactly two terminal disks")
    s_id, t_id = terminals
    adj = unit_disk_graph(instance.centers, instance.radius).adj
    value, flow = edge_disjoint_paths(adj, [s_id], [t_id])
    sink_side = residual_sink_side(adj, flow, [t_id])
    cut_edges = sorted([min(v, w), max(v, w)] for v in sink_side for w in adj[v]
                       if w not in sink_side)
    assert len(cut_edges) == value
    return OptimumCertificate(
        problem="terminal-pair-cut",
        optimum=value,
        witness=cut_edges,
        method="max-flow",
    )


def multiterminal_cut_lower_bound(instance: DiskInstance) -> int:
    """Certified lower bound on the minimum intersection-edge cut that
    pairwise separates the terminal disks: half the sum of single-terminal
    isolating cuts (edge-disjoint paths from one terminal to the others),
    rounded up.  Two terminals take one flow: both isolating cuts are the
    minimum cut between them, and half their sum is its size.

    Sound because every edge of an optimal cut lies on the boundary of at
    most two terminal components, while the cut's restriction to one
    terminal's component boundary is itself an isolating cut.  Together with
    a verified certificate of the same size this pins the optimum exactly.
    """
    terminals = instance.meta.get("terminal_disks", [])
    if len(terminals) < 2:
        return 0
    adj = unit_disk_graph(instance.centers, instance.radius).adj
    if len(terminals) == 2:
        return edge_disjoint_paths(adj, terminals[:1], terminals[1:])[0]
    total = sum(
        edge_disjoint_paths(adj, [t], [o for o in terminals if o != t])[0]
        for t in terminals
    )
    return -(-total // 2)
