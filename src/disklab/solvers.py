"""Exact brute-force and polynomial reference solvers.

These establish ground-truth optima for small instances so the reduction
laws can be checked end to end.  Enumeration solvers refuse instances above
hard caps instead of silently running forever.  The three graph-level
solvers (multiterminal cut, face separation, cycle-hitting set) and the
k-point fence solver enumerate in combinations order, pruned by
upward-closed feasibility: a superset of a feasible set is feasible, so a
subtree whose largest set fails is skipped, and the first feasible subset
found is the one plain enumeration finds.
The two-point isolation solver and the terminal-pair cut solver are
polynomial and handle the synthesized instances directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .arrangements import (
    DiskInstance,
    VerificationError,
    check_points_uncovered,
    complement_regions,
    edge_crossing_parities,
    separation,
    unit_disk_graph,
)
from .graphs import (
    MultiterminalInstance,
    SubdivisionInstance,
    Vertex,
    edge_disjoint_paths,
    fvs_solution_ok,
    multiterminal_solution_ok,
    subdivision_solution_ok,
)


class SolverCapExceeded(RuntimeError):
    """The instance is larger than this brute-force solver will accept."""


@dataclass
class OptimumCertificate:
    """A solved instance: the optimum value, one witness, and how it was
    obtained."""

    problem: str
    optimum: int
    witness: List[object] = field(default_factory=list)
    method: str = "enumeration"
    detail: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graph-level problems
# ---------------------------------------------------------------------------

def _feasible_subsets(
    n: int, ok: Callable[[Tuple[int, ...]], bool]
) -> Iterator[Tuple[int, ...]]:
    """Every index tuple ``t`` over ``range(n)`` with ``ok(t)``, in
    ``itertools.combinations`` order (by size, then lexicographic), for an
    upward-closed ``ok``: a superset of a feasible set is feasible.

    The full set is tested first, so an infeasible instance yields nothing
    at once.
    """
    if ok(tuple(range(n))):
        for size in range(n + 1):
            yield from _feasible_of_size(n, ok, size)


def _feasible_of_size(
    n: int, ok: Callable[[Tuple[int, ...]], bool], size: int
) -> Iterator[Tuple[int, ...]]:
    """The ``size``-element tuples of :func:`_feasible_subsets`, in order,
    for an ``ok`` that holds on the full set, by a depth-first walk of the
    combinations tree.  Before it descends at index ``c`` under prefix ``P``
    it tests ``P + range(c, n)``, the largest set below; when that fails,
    no leaf below ``c``, nor any to its right, can pass, so the level stops.
    The first branch of a level is not tested again: its largest set is the
    one tested before descending to that level.
    """

    def below(prefix: Tuple[int, ...], start: int, need: int) -> Iterator[Tuple[int, ...]]:
        # here ok(prefix + range(start, n)) holds
        if need == 0:
            if start == n or ok(prefix):
                yield prefix
            return
        for c in range(start, n - need + 1):
            if c > start and not ok(prefix + tuple(range(c, n))):
                return
            yield from below(prefix + (c,), c + 1, need - 1)

    return below((), 0, size)


def brute_min_multiterminal(
    inst: MultiterminalInstance, max_edges: int = 18
) -> OptimumCertificate:
    """Minimum total weight of deleted edges leaving all terminals in
    pairwise distinct components, by enumeration in combinations order,
    pruned by upward-closed feasibility (:func:`_feasible_subsets`)."""
    inst.validate()
    m = len(inst.graph.edges)
    if m > max_edges:
        raise SolverCapExceeded(f"{m} edges exceeds the enumeration cap {max_edges}")
    best: Optional[Tuple[int, List[int]]] = None
    for combo in _feasible_subsets(m, lambda t: multiterminal_solution_ok(inst, t)):
        w = sum(inst.weights.get(e, 1) for e in combo)
        if best is None or w < best[0]:
            best = (w, list(combo))
        if best[0] <= len(combo):
            # every later subset is at least as large, so weighs at least best[0]
            break
    if best is None:
        raise VerificationError("no edge subset separates the terminals")
    return OptimumCertificate(
        problem="multiterminal-cut", optimum=best[0], witness=best[1]
    )


def brute_min_subdivision(
    inst: SubdivisionInstance, max_groups: int = 18
) -> OptimumCertificate:
    """Minimum group-counted mass of kept edges that separate the marked
    faces, by enumeration of kept groups in combinations order, pruned by
    upward-closed feasibility (:func:`_feasible_subsets`).  Only whole
    groups are worth keeping, and each used group counts two regardless of
    its fragment count."""
    inst.validate()
    groups = inst.groups or [[e] for e in range(len(inst.graph.edges))]
    g = len(groups)
    if g > max_groups:
        raise SolverCapExceeded(f"{g} groups exceeds the enumeration cap {max_groups}")

    def kept(combo: Tuple[int, ...]) -> List[int]:
        return [e for gi in combo for e in groups[gi]]

    # mass is twice the number of used groups, so the first feasible set wins
    for combo in _feasible_subsets(g, lambda t: subdivision_solution_ok(inst, kept(t))):
        return OptimumCertificate(
            problem="face-separation",
            optimum=2 * len(combo),
            witness=list(combo),
            detail={"kept_edges": sorted(kept(combo))},
        )
    raise VerificationError("no group subset separates the marked faces")


def brute_min_fvs(
    vertices: Sequence[Vertex],
    edges: Sequence[Tuple[Vertex, Vertex]],
    max_vertices: int = 20,
) -> OptimumCertificate:
    """Minimum vertex set meeting every cycle, by enumeration of removed
    vertices in combinations order, pruned by upward-closed feasibility
    (:func:`_feasible_subsets`)."""
    vs = list(vertices)
    if len(vs) > max_vertices:
        raise SolverCapExceeded(
            f"{len(vs)} vertices exceeds the enumeration cap {max_vertices}"
        )

    def acyclic_without(combo: Tuple[int, ...]) -> bool:
        return fvs_solution_ok(vs, edges, {vs[i] for i in combo})

    for combo in _feasible_subsets(len(vs), acyclic_without):
        return OptimumCertificate(
            problem="cycle-hitting-set", optimum=len(combo),
            witness=[vs[i] for i in combo],
        )
    raise AssertionError("removing all vertices always leaves an acyclic graph")


# ---------------------------------------------------------------------------
# disk-level problems
# ---------------------------------------------------------------------------

def brute_min_isolation_two_points(
    instance: DiskInstance, max_disks: int = 20000
) -> OptimumCertificate:
    """Exact minimum fence for an instance with exactly two marked points.

    The union of a chosen set separates the points iff the set's
    intersection graph contains a cycle of odd crossing parity against the
    half-open rays from the two points, so the optimum is the shortest odd
    cycle in the parity double cover of the full intersection graph —
    polynomial, no enumeration.

    A cycle's parity is the sum of its edge parities, so every odd cycle
    contains an odd edge, and both of that edge's endpoints lie on the
    cycle.  Rooting one double-cover BFS at the smaller endpoint of each
    odd edge therefore reaches the shortest odd cycle: the BFS from a root
    on it finds an odd closed walk no longer than the cycle, and
    ``_extract_odd_cycle`` turns that walk into a simple odd cycle that is
    no longer either.  The cost is O(#odd edges · (n + m)) for n disks and
    m intersecting pairs; an instance without odd edges is refused without
    any search.  When every edge is odd this is still quadratic, hence the
    ``max_disks`` cap.  ``detail`` reports the cycle, the number of odd
    edges and the number of roots searched.
    """
    instance.validate()
    if len(instance.points) != 2:
        raise VerificationError("this solver handles exactly two marked points")
    if len(instance.tags) > max_disks:
        raise SolverCapExceeded(f"{len(instance.tags)} disks exceeds {max_disks}")
    check_points_uncovered(instance)
    p, q = [instance.points[k] for k in sorted(instance.points)]
    sc = instance.centers
    udg = unit_disk_graph(sc, instance.radius)
    # an edge's parity against both rays is the XOR of its two mask bits
    parity = {e: (m ^ (m >> 1)) & 1
              for e, m in zip(udg.edges, edge_crossing_parities(sc, udg, (p, q)))}

    n = udg.n
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j) in udg.edges:
        x = parity[(i, j)]
        adj[i].append((j, x))
        adj[j].append((i, x))

    odd_edges = [e for e, x in parity.items() if x]
    roots = sorted({i for (i, _) in odd_edges})
    best_len: Optional[int] = None
    best_cycle: Optional[List[int]] = None
    searched = 0
    for s in roots:
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
            cyc = _extract_odd_cycle([v for (v, _) in reversed(walk)], parity)
            if cyc is not None:
                best_len = len(cyc)
                best_cycle = cyc
    if best_cycle is None:
        raise VerificationError("no subset of the disks separates the two points")
    return OptimumCertificate(
        problem="two-point-isolation",
        optimum=best_len,
        witness=sorted(best_cycle),
        method="parity double cover",
        detail={
            "cycle": best_cycle,
            "odd_edges": len(odd_edges),
            "bfs_roots": searched,
        },
    )


def _extract_odd_cycle(
    walk: List[int], parity: Dict[Tuple[int, int], int]
) -> Optional[List[int]]:
    """A simple odd-parity cycle inside a closed odd walk.

    Splicing out an even closed subwalk preserves odd total parity;
    recursing into an odd closed subwalk shortens the problem.  Either way
    the walk loses vertices, so this terminates with a simple cycle.
    """

    def par_of(a: int, b: int) -> int:
        return parity[(a, b) if a < b else (b, a)]

    def total(w: List[int]) -> int:
        x = 0
        for a, b in zip(w, w[1:]):
            x ^= par_of(a, b)
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


def brute_min_isolation(
    instance: DiskInstance,
    max_subset: int = 12,
    max_disks: int = 40,
) -> OptimumCertificate:
    """Minimum fence for any number of marked points, by enumeration in
    combinations order up to ``max_subset`` disks, pruned by upward-closed
    feasibility (:func:`_feasible_of_size`): with the marked points
    uncovered, a superset of a fence is a fence.  Strictly capped; use the
    two-point solver for synthesized instances.
    """
    instance.validate()
    n = len(instance.tags)
    if n > max_disks:
        raise SolverCapExceeded(
            f"{n} disks exceeds the enumeration cap {max_disks}; "
            "use the two-point solver or shrink the instance"
        )
    if len(instance.points) < 2:
        raise VerificationError("isolation needs at least two marked points")
    check_points_uncovered(instance)
    sc, r = instance.centers, instance.radius

    def fences(combo: Tuple[int, ...]) -> bool:
        sub = sc.subset(combo)
        results = separation(sub, unit_disk_graph(sub, r), instance.points)
        return all(res.separated for res in results.values())

    if fences(tuple(range(n))):
        for size in range(min(max_subset, n) + 1):
            for combo in _feasible_of_size(n, fences, size):
                return OptimumCertificate(
                    problem="point-isolation", optimum=size, witness=list(combo)
                )
    raise SolverCapExceeded(
        f"no fence of size <= {max_subset} found within the subset cap"
    )


def brute_min_acc(
    instance: DiskInstance,
    max_subset: int = 12,
    max_disks: int = 64,
) -> OptimumCertificate:
    """Minimum number of deleted disks leaving a union with no bounded
    complement region, by subset enumeration over deletions."""
    instance.validate()
    n = len(instance.tags)
    if n > max_disks:
        raise SolverCapExceeded(f"{n} disks exceeds the enumeration cap {max_disks}")
    sc = instance.centers
    r = instance.radius
    if complement_regions(sc, r).bounded_complement_regions == 0:
        return OptimumCertificate(problem="acyclic-cover", optimum=0, witness=[])
    for size in range(1, min(max_subset, n) + 1):
        for combo in combinations(range(n), size):
            removed = set(combo)
            remaining = sc.subset([k for k in range(n) if k not in removed])
            if complement_regions(remaining, r).bounded_complement_regions == 0:
                return OptimumCertificate(
                    problem="acyclic-cover", optimum=size, witness=list(combo)
                )
    raise SolverCapExceeded(f"no deletion set of size <= {max_subset} found")


def min_terminal_pair_cut(instance: DiskInstance) -> OptimumCertificate:
    """Minimum number of intersection-graph edges whose deletion disconnects
    the two terminal disks: by Menger's theorem, the number of edge-disjoint
    paths between them (:func:`~disklab.graphs.edge_disjoint_paths`).

    The witness lists the disk-id pairs across the flow's sink side, in
    ``udg.edges`` order.  Disconnected terminals answer 0 with an empty
    witness.
    """
    instance.validate()
    terminals = instance.meta.get("terminal_disks", [])
    if len(terminals) != 2:
        raise VerificationError("terminal-pair cut needs exactly two terminal disks")
    s_id, t_id = terminals
    udg = unit_disk_graph(instance.centers, instance.radius)
    value, sink_side = edge_disjoint_paths(udg.adj, [s_id], [t_id])
    cut_edges = [[i, j] for i, j in udg.edges if (i in sink_side) != (j in sink_side)]
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
    rounded up.

    Sound because every edge of an optimal cut lies on the boundary of at
    most two terminal components, while the cut's restriction to one
    terminal's component boundary is itself an isolating cut.  Together with
    a verified certificate of the same size this pins the optimum exactly.
    """
    instance.validate()
    terminals = instance.meta.get("terminal_disks", [])
    if len(terminals) < 2:
        return 0
    udg = unit_disk_graph(instance.centers, instance.radius)
    total = sum(
        edge_disjoint_paths(udg.adj, [t], [o for o in terminals if o != t])[0]
        for t in terminals
    )
    return -(-total // 2)
