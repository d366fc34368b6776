"""Ground-truth solvers: work meters, exactness, witnesses."""

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodfill import quarter, ring_centers
from instances import build_weighted_edge_instance, disk_instance, int_centers
from oracles import (
    assert_contraction_exact,
    assert_cuts_match_networkx,
    assert_graph_matches_bucket_oracle,
    bfs_min_isolation_two_points,
    dist_sq,
    nx_isolating_cuts,
    pair_cut_by_edge_filter,
    pair_parities,
    reference_min_fvs,
    reference_min_isolation,
    reference_min_multiterminal,
    reference_min_subdivision,
    subset_centers,
)

from disklab import arrangements, solvers
from disklab.arrangements import (
    CenterIndex,
    DiskInstance,
    contract,
    edge_crossing_parities,
    unit_disk_graph,
    verify_acc,
    verify_isolation,
    verify_multiterminal_cut,
)
from disklab.base import Malformed, Meter, Refused
from disklab.corpus import seeded_multiterminal_instances
from disklab.gadgets import SynthesisError, build_acc_instance, build_udmc_instance
from disklab.geometry import Disk
from disklab.graphs import (
    Graph,
    MultiterminalInstance,
    PlanarEmbeddedGraph,
    SubdivisionInstance,
    edge_disjoint_paths,
    reduce_pmc_to_subdivision,
    residual_sink_side,
)
from disklab.gridembed import grid_embed
from disklab.pipeline import cli_solve, read_json, write_json
from disklab.solvers import (
    OptimumCertificate,
    Rejected,
    brute_min_acc,
    brute_min_fvs,
    brute_min_isolation,
    brute_min_isolation_two_points,
    brute_min_multiterminal,
    brute_min_subdivision,
    min_terminal_pair_cut,
    multiterminal_cut_lower_bound,
)


def path3():
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v", "w"], [("u", "v"), ("v", "w")], {"u": [0], "v": [0, 1], "w": [1]})
    return g


def triangle_graph():
    return PlanarEmbeddedGraph.from_edge_rotation(
        [0, 1, 2], [(0, 1), (1, 2), (2, 0)], {0: [0, 2], 1: [1, 0], 2: [2, 1]})


# ---------------------------------------------------------------------------
# graph-level solvers
# ---------------------------------------------------------------------------

def test_multiterminal_path_needs_one_edge():
    cert = brute_min_multiterminal(
        MultiterminalInstance(graph=path3(), terminals=["u", "w"]))
    assert cert.optimum == 1
    assert cert.witness in ([0], [1])


def test_multiterminal_triangle_all_terminals():
    cert = brute_min_multiterminal(
        MultiterminalInstance(graph=triangle_graph(), terminals=[0, 1, 2]))
    assert cert.optimum == 3  # any surviving edge keeps two terminals together


def test_multiterminal_weighted():
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v")], {"u": [0], "v": [0]})
    cert = brute_min_multiterminal(
        MultiterminalInstance(graph=g, terminals=["u", "v"], weights={0: 5}))
    assert cert.optimum == 5 and cert.witness == [0]


def test_multiterminal_cap():
    # a path of 20 edges, past the 18-edge cap that once refused it, solves
    # within the search allowance.  Refusals at a low allowance are
    # test_each_cap_is_a_module_constant's.
    n = 21
    g = PlanarEmbeddedGraph.from_edge_rotation(
        list(range(n)), [(i, i + 1) for i in range(n - 1)],
        {v: [e for e in (v - 1, v) if 0 <= e < n - 1] for v in range(n)})
    cert = brute_min_multiterminal(MultiterminalInstance(graph=g, terminals=[0, n - 1]))
    assert cert.optimum == 1


def test_subdivision_group_mass_path():
    red = reduce_pmc_to_subdivision(
        MultiterminalInstance(graph=path3(), terminals=["u", "w"]))
    cert = brute_min_subdivision(red.instance)
    assert cert.optimum == 2
    assert len(cert.witness) == 1


def test_subdivision_group_mass_triangle():
    red = reduce_pmc_to_subdivision(
        MultiterminalInstance(graph=triangle_graph(), terminals=[0, 1, 2]))
    cert = brute_min_subdivision(red.instance)
    assert cert.optimum == 6


def test_fvs_values():
    tri = [("a", "b"), ("b", "c"), ("c", "a")]
    assert brute_min_fvs(Graph(["a", "b", "c"], tri)).optimum == 1
    two = tri + [("x", "y"), ("y", "z"), ("z", "x")]
    assert brute_min_fvs(Graph(["a", "b", "c", "x", "y", "z"], two)).optimum == 2
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert brute_min_fvs(Graph([0, 1, 2, 3], c4)).optimum == 1
    assert brute_min_fvs(Graph([0, 1, 2], [(0, 1), (1, 2)])).optimum == 0
    assert brute_min_fvs(Graph([0], [(0, 0)])).optimum == 1  # a loop is a cycle


def test_fvs_witness_breaks_all_cycles():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
    cert = brute_min_fvs(Graph([0, 1, 2, 3, 4], edges))
    assert cert.optimum == 1 and cert.witness == [2]


# ---------------------------------------------------------------------------
# pruned enumeration against plain enumeration
# ---------------------------------------------------------------------------

CUT_CORPUS_SEED = 31415        # the acceptance suite's criterion-05 corpus


@st.composite
def upward_closed_families(draw):
    """A ground-set size n <= 10 and up to five sets generating an
    upward-closed family of subsets of range(n): the supersets of any."""
    n = draw(st.integers(0, 10))
    elems = st.integers(0, n - 1) if n else st.nothing()
    return n, draw(st.lists(st.frozensets(elems, max_size=n), max_size=5))


@settings(max_examples=200, deadline=None)
@given(upward_closed_families())
@example((0, []))                       # the empty family
@example((0, [frozenset()]))            # the family {()}
@example((6, []))
@example((6, [frozenset()]))            # every subset
@example((6, [frozenset(range(6))]))    # the full set alone
def test_feasible_subsets_equal_the_filtered_combinations(family):
    n, gens = family

    def ok(t):
        assert list(t) == sorted(set(t)) and all(0 <= i < n for i in t), t
        return any(g <= set(t) for g in gens)

    expect = [c for k in range(n + 1) for c in combinations(range(n), k) if ok(c)]
    assert list(solvers._feasible_subsets(n, ok)) == expect


@pytest.fixture(scope="module")
def sound_graphs(sound_drawings):
    return [emb.graph for emb in sound_drawings]


def every_face_marked(g):
    return SubdivisionInstance(graph=g, terminals={f"p{f}": f for f in range(g.face_count())})


def test_subdivision_matches_oracle_with_every_face_marked(sound_graphs):
    for g in sound_graphs:
        sub = every_face_marked(g)
        assert brute_min_subdivision(sub) == reference_min_subdivision(sub)


def test_subdivision_matches_oracle_on_seeded_terminal_subsets(sound_graphs):
    rng = random.Random(4242)
    for g in sound_graphs:
        nf = g.face_count()
        for _ in range(5):
            faces = sorted(rng.sample(range(nf), rng.randint(1, nf)))
            sub = SubdivisionInstance(graph=g, terminals={f"p{f}": f for f in faces})
            assert brute_min_subdivision(sub) == reference_min_subdivision(sub)


def test_multiterminal_matches_oracle_on_seeded_terminals(sound_graphs):
    # weights exercise the stop once the best weight is reached
    rng = random.Random(2718)
    for g in sound_graphs:
        for weighted in (False, True):
            terminals = rng.sample(g.vertices, rng.randint(2, min(4, len(g.vertices))))
            weights = {e: rng.randint(2, 3) for e in range(len(g.edges))
                       if weighted and rng.random() < 0.5}
            mti = MultiterminalInstance(graph=g, terminals=terminals, weights=weights)
            assert brute_min_multiterminal(mti) == reference_min_multiterminal(mti)


def test_multiterminal_matches_oracle_with_every_weight_at_least_2(sound_graphs, monkeypatch):
    # the search stops once the best weight is at most the least weight
    # times the subset size, which with unit weights is the size alone; so
    # weighing every edge 3 checks as many subsets as weighing each 1
    calls = [0]
    check = solvers.multiterminal_solution_ok

    def counted(*args):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(solvers, "multiterminal_solution_ok", counted)
    rng = random.Random(5005)
    corpus = sound_graphs + [m.graph for m in seeded_multiterminal_instances(CUT_CORPUS_SEED, 12)]
    for g in corpus:
        terminals = rng.sample(g.vertices, rng.randint(2, min(4, len(g.vertices))))
        weights = {e: rng.randint(2, 5) for e in range(len(g.edges))}
        mti = MultiterminalInstance(graph=g, terminals=terminals, weights=weights)
        assert brute_min_multiterminal(mti) == reference_min_multiterminal(mti)
        got = []
        for w in (1, 3):
            calls[0] = 0
            mti = MultiterminalInstance(graph=g, terminals=terminals,
                                        weights=dict.fromkeys(range(len(g.edges)), w))
            got.append((brute_min_multiterminal(mti), calls[0]))
        (unit, unit_calls), (triple, triple_calls) = got
        assert triple.optimum == 3 * unit.optimum and triple.witness == unit.witness
        assert triple_calls == unit_calls


def test_graph_solvers_match_oracles_on_the_criterion_05_corpus():
    for mti in seeded_multiterminal_instances(CUT_CORPUS_SEED, 12):
        assert brute_min_multiterminal(mti) == reference_min_multiterminal(mti)
        sub = reduce_pmc_to_subdivision(mti).instance
        assert brute_min_subdivision(sub) == reference_min_subdivision(sub)


def test_fvs_matches_oracle_on_seeded_graphs():
    rng = random.Random(1618)
    for n in range(3, 12):
        for _ in range(4):
            vs = [f"v{i}" for i in rng.sample(range(n), n)]
            # pairs with probability 0.35, loops with probability 0.05
            es = [(u, w) for x, u in enumerate(vs) for w in vs[x:]
                  if rng.random() < (0.05 if u == w else 0.35)]
            assert brute_min_fvs(Graph(vs, es)) == reference_min_fvs(vs, es)


def test_every_face_marked_subdivision_prunes_to_quadratic_checks(sound_graphs, monkeypatch):
    # the non-bridge edges are the one minimal answer; plain enumeration
    # checks nearly all 2^g subsets, 16,384 on the 14-edge first graph
    calls = [0]
    check = solvers.subdivision_solution_ok

    def counted(inst, kept):
        calls[0] += 1
        return check(inst, kept)

    monkeypatch.setattr(solvers, "subdivision_solution_ok", counted)
    for g in sound_graphs:
        calls[0] = 0
        brute_min_subdivision(every_face_marked(g))
        assert calls[0] <= (len(g.edges) + 1) ** 2, (len(g.edges), calls[0])


# ---------------------------------------------------------------------------
# two-point isolation
# ---------------------------------------------------------------------------

def ring4(extra=True, points=None):
    """Four disks in a ring around "in", an extra one far off; ``points``
    adds marked points or moves "in" and "out"."""
    disks = [
        Disk(Fraction(2), Fraction(0)), Disk(Fraction(0), Fraction(2)),
        Disk(Fraction(-2), Fraction(0)), Disk(Fraction(0), Fraction(-2)),
    ]
    if extra:
        disks.append(Disk(Fraction(8), Fraction(8)))
    return disk_instance(
        radius=Fraction(3, 2),
        disks=disks,
        points={"in": (Fraction(0), Fraction(0)), "out": (Fraction(12), Fraction(0)),
                **(points or {})},
    )


def test_two_point_ring_optimum():
    cert = brute_min_isolation_two_points(ring4())
    assert cert.optimum == 4
    assert cert.witness == [0, 1, 2, 3]
    assert verify_isolation(ring4(), cert.witness).ok


def test_two_point_matches_enumeration_on_ring():
    a = brute_min_isolation_two_points(ring4())
    b = brute_min_isolation(ring4())
    assert a.optimum == b.optimum == 4


def test_two_point_prefers_smaller_ring():
    disks = [Disk(Fraction(x), Fraction(y)) for x, y in
             [(2, 0), (0, 2), (-2, 0), (0, -2)]]
    outer = [Disk(Fraction(6) * x, Fraction(6) * y, ("o", k)) for k, (x, y) in
             enumerate([(1, 0), (0, 1), (-1, 0), (0, -1)])]
    mids = [Disk(Fraction(9, 2) * a + Fraction(3, 2) * b, Fraction(9, 2) * c + Fraction(3, 2) * d, ("m", k))
            for k, (a, b, c, d) in enumerate([(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0)])]
    inst = disk_instance(
        radius=Fraction(3, 2), disks=disks + outer + mids,
        points={"p": (Fraction(0), Fraction(0)), "q": (Fraction(20), Fraction(0))},
    )
    cert = brute_min_isolation_two_points(inst)
    assert cert.optimum == 4
    assert cert.witness == [0, 1, 2, 3]


def test_two_point_unseparable_raises():
    inst = disk_instance(
        radius=Fraction(1),
        disks=[Disk(Fraction(0), Fraction(0)), Disk(Fraction(3, 2), Fraction(0))],
        points={"p": (Fraction(0), Fraction(5)), "q": (Fraction(0), Fraction(-5))},
    )
    # well-formed, with no fence: rejected, not malformed
    with pytest.raises(Rejected, match="no subset of the disks separates the marked points"):
        brute_min_isolation_two_points(inst)


def test_two_point_solver_refuses_without_an_odd_cycle_before_any_search(monkeypatch):
    # a 40-disk stacked block with one marked point left of it and one
    # below: edges crossing the first ray are odd, no cycle is, so the
    # parity forest refuses and no root's search starts
    rng = random.Random(40)
    inst = disk_instance(
        radius=Fraction(1, 10),
        disks=[Disk(Fraction(rng.randrange(1000), 400000), Fraction(rng.randrange(1000), 400000))
               for _ in range(40)],
        points={"p": (Fraction(-1), Fraction(1, 800)), "q": (Fraction(0), Fraction(-1))},
    )

    def no_search(*_args):
        raise AssertionError("a root's search started")

    monkeypatch.setattr(solvers, "heappush", no_search)
    with pytest.raises(Rejected, match="no subset of the disks separates the marked points"):
        brute_min_isolation_two_points(inst)


def test_two_point_requires_two_points():
    inst = ring4(points={"third": (Fraction(30), Fraction(0))})
    with pytest.raises(Malformed):
        brute_min_isolation_two_points(inst)


def test_two_point_rejects_covered_points():
    inst = ring4(points={"in": (Fraction(2), Fraction(149, 100))})  # inside disk (2, 0)
    with pytest.raises(Malformed, match="covered"):
        brute_min_isolation_two_points(inst)
    # free, though within r/1000 of disk (2, 0)
    inst = ring4(points={"in": (Fraction(1, 2) - Fraction(1, 2000), Fraction(0))})
    assert brute_min_isolation_two_points(inst).optimum == 4


def search_spend(monkeypatch, solve, inst):
    """The certificate of ``solve(inst)`` and the units its search meter spent."""
    meters = []

    class Recorded(Meter):
        def __init__(self, what, allowance):
            super().__init__(what, allowance)
            meters.append(self)

    with monkeypatch.context() as m:
        m.setattr(solvers, "Meter", Recorded)
        cert = solve(inst)
    assert [meter.what for meter in meters] == ["search"]
    return cert, meters[0].spent


def assert_allowance_is_inclusive(monkeypatch, solve, inst, optimum):
    """``solve(inst)`` answers ``optimum`` at an allowance of exactly its
    spend, and one unit less refuses it."""
    cert, spent = search_spend(monkeypatch, solve, inst)
    assert cert.optimum == optimum and spent >= 1
    monkeypatch.setattr(solvers, "SEARCH_ALLOWANCE", spent)
    assert solve(inst).optimum == optimum
    monkeypatch.setattr(solvers, "SEARCH_ALLOWANCE", spent - 1)
    with pytest.raises(Refused, match=f"allowance of {spent - 1} is spent"):
        solve(inst)


def test_two_point_cap(monkeypatch):
    # the heap pops of ring4's one root search
    assert_allowance_is_inclusive(monkeypatch, brute_min_isolation_two_points, ring4(), 4)


@pytest.mark.parametrize("check, points", [
    (brute_min_isolation_two_points, {}),
    (brute_min_isolation, {"third": (Fraction(30), Fraction(0))}),
    (lambda inst: verify_isolation(inst, range(5)), {}),
], ids=["two-point", "k-point", "verify"])
def test_each_fence_check_charges_the_edge_allowance_before_the_covered_point_check(
        monkeypatch, check, points):
    # each builds, and charges, the graph of every disk first: over the
    # edge allowance a covered point is refused, within it malformed
    inst = ring4(points={"in": (Fraction(2), Fraction(149, 100)), **points})  # in disk (2, 0)
    monkeypatch.setattr(arrangements, "EDGE_SLACK", 3)
    monkeypatch.setattr(arrangements, "EDGES_PER_DISK", 0)
    with pytest.raises(Refused, match="the edge meter's allowance of 3 is spent: 4 charged"):
        check(inst)
    monkeypatch.setattr(arrangements, "EDGE_SLACK", 4)
    with pytest.raises(Malformed, match="'in' is covered by disk 0"):
        check(inst)


def acc_ring():
    return disk_instance(radius=Fraction(3, 2), disks=ring4(extra=False).disks)


def two_rings():
    # three marked points, one in each ring and one outside: `solve
    # isolation` takes them to the k-point solver
    ring = ring4(extra=False).disks
    return disk_instance(
        radius=Fraction(3, 2), disks=ring + [Disk(d.x + 20, d.y) for d in ring],
        points={"in": (Fraction(0), Fraction(0)), "in2": (Fraction(20), Fraction(0)),
                "out": (Fraction(12), Fraction(0))})


# (id, the module and allowance constant patched, its low value, the
# problem, an instance that solves at the shipped allowances, the meter
# that refuses it at the low value and the units charged by then).  The
# ids name the size caps these rows once lowered: each instance is the one
# that cap's row refused.  A candidate test costs one unit and one for
# each edge, group, vertex or disk of the instance, so the search rows are
# refused at their first test: 1 + 3 on the triangle, 1 + 8 on two_rings
# and 1 + 4 on acc_ring.  ring4's first root pops 2 heap states.
CAPS = [
    ("MAX_EDGES-2", "solvers", "SEARCH_ALLOWANCE", 2, "mc",
     MultiterminalInstance(triangle_graph(), [0, 1]).to_dict(), "search", 4),
    ("MAX_GROUPS-2", "solvers", "SEARCH_ALLOWANCE", 2, "subdivision",
     SubdivisionInstance(triangle_graph(), {"p": 0, "q": 1}).to_dict(), "search", 4),
    ("MAX_VERTICES-2", "solvers", "SEARCH_ALLOWANCE", 2, "fvs",
     {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]]}, "search", 4),
    ("MAX_FENCE_DISKS-4", "arrangements", "EDGE_SLACK", 7, "isolation",
     two_rings().to_dict(), "edge", 8),
    ("MAX_ACC_DISKS-3", "arrangements", "EDGE_SLACK", 3, "acc",
     acc_ring().to_dict(), "edge", 4),
    ("MAX_SUBSET-3", "solvers", "SEARCH_ALLOWANCE", 3, "isolation",
     two_rings().to_dict(), "search", 9),
    ("MAX_SUBSET-0", "solvers", "SEARCH_ALLOWANCE", 0, "acc",
     acc_ring().to_dict(), "search", 5),
    ("MAX_JUNCTIONS-1", "solvers", "SEARCH_ALLOWANCE", 1, "isolation",
     ring4().to_dict(), "search", 2),
]


@pytest.mark.parametrize("module, name, value, problem, instance, meter, charged",
                         [c[1:] for c in CAPS], ids=[c[0] for c in CAPS])
def test_each_cap_is_a_module_constant(monkeypatch, tmp_path, module, name, value, problem,
                                       instance, meter, charged):
    src, out = tmp_path / "inst.json", tmp_path / "opt.json"
    write_json(instance, src)
    assert cli_solve(problem, src, out)[0] == 0    # at the shipped allowances, it solves
    assert read_json(out)["optimum"] >= 1
    out.unlink()
    # an edge row's allowance is its EDGE_SLACK alone
    monkeypatch.setattr(arrangements, "EDGES_PER_DISK", 0)
    monkeypatch.setattr({"solvers": solvers, "arrangements": arrangements}[module], name, value)
    # `solve` reports the meter's refusal, exits 1 and writes nothing
    refusal = f"the {meter} meter's allowance of {value} is spent: {charged} charged"
    assert cli_solve(problem, src, out) == (1, [f"refused: {refusal}"])
    assert not out.exists()


def test_witness_is_locally_minimal():
    cert = brute_min_isolation_two_points(ring4())
    for drop in cert.witness:
        rest = [i for i in cert.witness if i != drop]
        assert not verify_isolation(ring4(), rest).ok


def all_roots_shortest_odd_cycle(instance):
    """Reference for the two-point solver: (length of the shortest odd
    closed walk or None, number of odd edges), by an unpruned double-cover
    BFS rooted at every disk.  A shortest odd closed walk is a simple odd
    cycle, so its length is the optimum."""
    centers = instance.centers
    p, q = [instance.points[k] for k in sorted(instance.points)]
    udg = unit_disk_graph(centers, instance.radius)
    parity = pair_parities(centers, udg, p, q)
    adj = [[] for _ in range(udg.n)]
    for (i, j), x in parity.items():
        adj[i].append((j, x))
        adj[j].append((i, x))
    best = None
    for s in range(udg.n):
        dist = {(s, 0): 0}
        dq = deque([(s, 0)])
        while dq:
            v, par = dq.popleft()
            for w, x in adj[v]:
                state = (w, par ^ x)
                if state not in dist:
                    dist[state] = dist[(v, par)] + 1
                    dq.append(state)
        if (s, 1) in dist and (best is None or dist[(s, 1)] < best):
            best = dist[(s, 1)]
    return best, sum(parity.values())


def _rings_layout(rng):
    centers, holes = [], []
    for _ in range(rng.randint(1, 2)):
        cx, cy = quarter(rng.uniform(0, 12)), quarter(rng.uniform(0, 6))
        centers += ring_centers(rng, cx, cy, rng.choice([2, 3, 4]), (1.1, 1.9), 0.04)
        holes.append((cx, cy))
    centers += [(quarter(rng.uniform(-2, 16)), quarter(rng.uniform(-4, 10)))
                for _ in range(rng.randint(0, 5))]
    return Fraction(1), centers, holes


def _nested_rings_layout(rng):
    inner, outer = rng.choice([2, 5 / 2]), rng.choice([5, 6])
    centers = [c for rad in (inner, outer)
               for c in ring_centers(rng, 0, 0, rad, (1.1, 1.9), 0.03)]
    for _ in range(rng.randint(0, 2)):  # spokes between the rings
        a = rng.uniform(0, 2 * math.pi)
        rho = inner + 1.5
        while rho < outer - 1:
            centers.append((quarter(rho * math.cos(a)), quarter(rho * math.sin(a))))
            rho += 1.5
    mid = (inner + outer) / 2
    holes = [(Fraction(0), Fraction(0))] + [
        (quarter(mid * math.cos(a)), quarter(mid * math.sin(a)))
        for a in (rng.uniform(0, 2 * math.pi) for _ in range(2))
    ]
    return Fraction(1), centers, holes


def _lattice_layout(rng):
    w, h = rng.randint(3, 7), rng.randint(3, 6)
    keep = rng.uniform(0.55, 0.85)
    centers = [(Fraction(x), Fraction(y)) for x in range(w) for y in range(h)
               if rng.random() < keep]
    cells = [(x + Fraction(1, 2), y + Fraction(1, 2)) for x in range(w - 1) for y in range(h - 1)]
    return rng.choice([Fraction(3, 5), Fraction(3, 4)]), centers, cells


def two_point_oracle_instances(seed, count):
    """Seeded ring, nested-ring and lattice layouts, each with two free
    marked points, drawn mostly from the layout's likely holes; about one
    in eight has both rays clear of every centre, so no edge is odd."""
    rng = random.Random(seed)
    layouts = [_rings_layout, _nested_rings_layout, _lattice_layout]
    out = []
    while len(out) < count:
        r, centers, holes = layouts[len(out) % 3](rng)
        centers = list(dict.fromkeys(centers))
        if not centers:
            continue
        index = CenterIndex(int_centers(centers, r), r)
        xs = [c[0] for c in centers]
        ys = [c[1] for c in centers]
        if rng.random() < 0.125:
            y = quarter(rng.uniform(float(min(ys)), float(max(ys))))
            pts = [(max(xs) + 2 * r, y), (max(xs) + 3 * r, y + 1)]
        else:
            pts = []
            for _ in range(100):
                if holes and rng.random() < 0.7:
                    pt = rng.choice(holes)
                else:
                    pt = (quarter(rng.uniform(float(min(xs)) - 2, float(max(xs)) + 2)),
                          quarter(rng.uniform(float(min(ys)) - 2, float(max(ys)) + 2)))
                if pt not in pts and not index.within(pt, r):
                    pts.append(pt)
                if len(pts) == 2:
                    break
            else:
                continue
        out.append(disk_instance(radius=r, disks=[Disk(x, y) for x, y in centers],
                                 points={"p": pts[0], "q": pts[1]}))
    return out


def _kernel_of(r, centers, points):
    sc = int_centers(centers, r)
    udg = unit_disk_graph(sc, r)
    masks = edge_crossing_parities(sc, udg, points)
    return udg, masks, contract(udg, masks)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([_rings_layout, _nested_rings_layout, _lattice_layout]),
       st.randoms(use_true_random=False))
def test_contraction_is_exact_on_random_layouts(layout, rng):
    r, centers, holes = layout(rng)
    centers = list(dict.fromkeys(centers))
    assert_contraction_exact(*_kernel_of(r, centers, holes[:3]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([_rings_layout, _nested_rings_layout, _lattice_layout]),
       st.randoms(use_true_random=False), st.data())
def test_kernel_separation_matches_separation_with_disks_dropped(layout, rng, data):
    # up to three junctions, and the middle inner disk of up to three
    # chains, dropped together: the flags for the union less them equal
    # separation's on the disks kept
    r, centers, holes = layout(rng)
    centers = list(dict.fromkeys(centers))
    points = {f"p{t}": pt for t, pt in enumerate(holes[:3])}
    udg, _, kernel = _kernel_of(r, centers, list(points.values()))
    inner = [c.inner[len(c.inner) // 2] for c in kernel.chains if c.inner]
    dropped = set()
    for pool in (kernel.junctions, inner):
        if pool:
            dropped |= data.draw(st.sets(st.sampled_from(pool), max_size=3))
    sc = subset_centers(int_centers(centers, r), [i for i in range(udg.n) if i not in dropped])
    want = arrangements.separation(sc, unit_disk_graph(sc, r), points)
    assert arrangements.kernel_separation(kernel, sorted(points), dropped) == {
        pair: res.separated for pair, res in want.items()}


def test_contraction_covers_loops_and_rings():
    counts = [assert_contraction_exact(*_kernel_of(
        inst.radius, [d.center for d in inst.disks], [inst.points["p"], inst.points["q"]]))
        for inst in two_point_oracle_instances(seed=8128, count=240)]
    loops, rings = map(sum, zip(*counts))
    # rings with one spoke, and rings that touch nothing: 21 and 69 at this seed
    assert loops >= 10 and rings >= 10, (loops, rings)


def test_two_point_odd_edge_roots_match_all_roots_oracle():
    separated = many_odd_unseparated = no_odd = 0
    for inst in two_point_oracle_instances(seed=8128, count=240):
        expect, odd = all_roots_shortest_odd_cycle(inst)
        if expect is None:
            with pytest.raises(Rejected, match="no subset"):
                brute_min_isolation_two_points(inst)
            with pytest.raises(Malformed, match="no subset"):
                bfs_min_isolation_two_points(inst)
            no_odd += odd == 0
            many_odd_unseparated += odd >= 2
            continue
        cert = brute_min_isolation_two_points(inst)
        assert cert.optimum == expect == bfs_min_isolation_two_points(inst).optimum
        assert cert.detail["odd_edges"] == odd >= 1
        assert 1 <= cert.detail["roots"] <= odd
        cycle = cert.detail["cycle"]
        assert len(cycle) == len(set(cycle)) == cert.optimum
        assert sorted(cycle) == cert.witness
        centers, four_r2 = [d.center for d in inst.disks], 4 * inst.radius ** 2
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert dist_sq(centers[a], centers[b]) <= four_r2
        assert verify_isolation(inst, cert.witness).ok
        for drop in cert.witness:
            assert not verify_isolation(inst, [i for i in cert.witness if i != drop]).ok
        separated += 1
    # keep the corpus from going vacuous: 77, 53 and 79 at this seed
    assert separated >= 60
    assert many_odd_unseparated >= 30
    assert no_odd >= 30


# ---------------------------------------------------------------------------
# subset-enumeration solvers
# ---------------------------------------------------------------------------

def lattice_fence_instances(seed, count):
    """Seeded instances of at most 12 disks of radius 3/5 on the sites of a
    4 x 4 unit lattice, with 2 to 4 marked points at cell centres in and
    around it.  Lattice neighbours overlap and diagonal ones do not, so the
    four disks around a cell fence its centre; no cell centre is covered.
    Up to two inner cells get all four corners and a point, so that some
    instances have a fence; the other points and disks fall at random."""
    rng = random.Random(seed)
    sites = [(x, y) for x in range(4) for y in range(4)]
    cells = [(x, y) for x in range(-1, 4) for y in range(-1, 4)]
    out = []
    for _ in range(count):
        fenced = rng.sample([(x, y) for x in range(3) for y in range(3)], rng.randint(0, 2))
        chosen = {(x + dx, y + dy) for x, y in fenced for dx in (0, 1) for dy in (0, 1)}
        chosen |= set(rng.sample([s for s in sites if s not in chosen],
                                 rng.randint(max(4, len(chosen)), 12) - len(chosen)))
        marked = fenced + rng.sample([c for c in cells if c not in fenced],
                                     rng.randint(max(0, 2 - len(fenced)), 4 - len(fenced)))
        out.append(disk_instance(
            radius=Fraction(3, 5),
            disks=[Disk(Fraction(x), Fraction(y)) for x, y in sorted(chosen)],
            points={f"p{k}": (Fraction(2 * x + 1, 2), Fraction(2 * y + 1, 2))
                    for k, (x, y) in enumerate(marked)}))
    return out


def solve_outcome(solve, inst, **caps):
    """The certificate, or the type and message of the refusal."""
    try:
        return solve(inst, **caps)
    except (Refused, Malformed, Rejected) as exc:
        return type(exc), str(exc)


NO_FENCE = (Rejected, "no subset of the disks separates the marked points")


def test_k_point_fence_matches_oracle_on_seeded_lattices():
    optima = []
    for inst in lattice_fence_instances(3141, 40):
        fenced = verify_isolation(inst, range(len(inst.tags))).ok
        got = solve_outcome(brute_min_isolation, inst)
        for cap in (5, 12):
            want = solve_outcome(reference_min_isolation, inst, max_subset=cap)
            # no fence at all is "no solution"; the oracle finds none within its cap
            if not fenced:
                assert got == NO_FENCE and want[0] is Refused
            elif not isinstance(want, OptimumCertificate):
                # past the oracle's subset cap: the solver's fence verifies
                assert want[0] is Refused
                assert got.optimum > cap and verify_isolation(inst, got.witness).ok
            else:
                assert got == want
        optima.append(got.optimum if isinstance(got, OptimumCertificate) else None)
    # keep the corpus from going vacuous: at this seed 16 instances have a
    # fence (11 of size 4 and 5 past the oracle's subset cap of 5) and 24
    # have none
    assert optima.count(4) >= 8
    assert sum(o is not None and o > 5 for o in optima) >= 4
    assert optima.count(None) >= 15


def test_k_point_fence_refuses_like_the_oracle():
    ring = ring4()
    covered = disk_instance(ring.radius, ring.disks,
                            points={**ring.points, "c": (Fraction(2), Fraction(0))})
    single = disk_instance(ring.radius, ring.disks, points={"in": ring.points["in"]})
    for inst in (covered, single):
        want = solve_outcome(reference_min_isolation, inst)
        assert want[0] is Malformed
        assert solve_outcome(brute_min_isolation, inst) == want


def test_brute_isolation_caps(monkeypatch):
    # the sets ring4's four-disk fence search tests
    assert_allowance_is_inclusive(monkeypatch, brute_min_isolation, ring4(), 4)


def line_of_disks(n, points):
    """``n`` disks of radius 1/4 spaced 1 apart on the x-axis, and ``points``."""
    return disk_instance(radius=Fraction(1, 4),
                         disks=[Disk(Fraction(i), Fraction(0)) for i in range(n)],
                         points=points)


@pytest.mark.parametrize("points, why", [
    ({"a": (Fraction(100), Fraction(0))}, "isolation needs at least two marked points"),
    ({"a": (Fraction(100), Fraction(0)), "b": (Fraction(0), Fraction(0))},
     "marked point 'b' is covered by disk 0"),
])
def test_k_point_fence_checks_its_points_before_any_work(monkeypatch, points, why):
    # 41 disks, once refused by a 40-disk cap before the points were
    # looked at: malformed, before the search meter is charged at all
    monkeypatch.setattr(solvers, "SEARCH_ALLOWANCE", 0)
    with pytest.raises(Malformed, match=why):
        brute_min_isolation(line_of_disks(41, points))


def test_k_point_fence_answers_past_forty_disks():
    # two_rings and 40 far disks in a line: 48 disks, past the 40-disk cap
    # that refused them, and the two four-disk rings fence the three points
    inst = two_rings()
    inst = disk_instance(inst.radius, inst.disks + [Disk(Fraction(3 * k), Fraction(50))
                                                    for k in range(40)], points=inst.points)
    cert = brute_min_isolation(inst)
    assert cert.optimum == 8 and cert.witness == list(range(8))
    assert verify_isolation(inst, cert.witness).ok


def test_brute_acc_ring_needs_one_deletion():
    inst = disk_instance(radius=Fraction(3, 2), disks=ring4(extra=False).disks)
    cert = brute_min_acc(inst)
    assert cert.optimum == 1
    assert verify_acc(inst, cert.witness).ok


def test_brute_acc_chain_is_free():
    inst = disk_instance(
        radius=Fraction(3, 2),
        disks=[Disk(Fraction(2 * k), Fraction(0)) for k in range(4)],
    )
    assert brute_min_acc(inst).optimum == 0


def test_brute_acc_two_rings():
    shift = Fraction(20)
    disks = ring4(extra=False).disks + [
        Disk(d.x + shift, d.y) for d in ring4(extra=False).disks
    ]
    inst = disk_instance(radius=Fraction(3, 2), disks=disks)
    cert = brute_min_acc(inst)
    assert cert.optimum == 2
    assert verify_acc(inst, cert.witness).ok


def test_brute_acc_cap(monkeypatch):
    # the deletion sets tested before the ring's one-disk deletion
    assert_allowance_is_inclusive(monkeypatch, brute_min_acc, acc_ring(), 1)


def test_acc_matches_fvs_on_builders():
    graphs = [
        (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")],
         {"a": (0, 0), "b": (1, 0), "c": (0, 1)}),
        ([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)],
         {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}),
    ]
    for vs, es, coords in graphs:
        g = Graph(vs, es)
        art = build_acc_instance(g, coords)
        fvs = brute_min_fvs(g)
        disk_cert = brute_min_acc(art.instance)
        assert disk_cert.optimum == fvs.optimum


# ---------------------------------------------------------------------------
# terminal-pair cuts
# ---------------------------------------------------------------------------

def test_cut_matches_weight():
    for w in (1, 2, 3, 4, 5):
        art = build_weighted_edge_instance(w)
        cert = min_terminal_pair_cut(art.instance)
        assert cert.optimum == w
        assert len(cert.witness) == w
        assert verify_multiterminal_cut(art.instance, cert.witness).ok
        assert_cuts_match_networkx(art.instance)


@st.composite
def lattice_cut_instances(draw):
    """Up to 16 disks centred on a 7 x 7 integer lattice (repeats allowed)
    with radius 1/2, 3/4 or 1, and 2 to 5 distinct terminal disks: sparse
    enough that isolated, touching and disconnected terminals all occur."""
    radius = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    cells = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          min_size=2, max_size=16))
    terminals = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2,
                              max_size=min(5, len(cells)), unique=True))
    return disk_instance(radius=radius,
                         disks=[Disk(Fraction(x), Fraction(y)) for x, y in cells],
                         meta={"terminal_disks": terminals})


@settings(max_examples=200, deadline=None)
@given(lattice_cut_instances())
def test_cut_solvers_match_networkx(inst):
    assert_cuts_match_networkx(inst)


def test_cut_witness_edges_exist():
    art = build_weighted_edge_instance(3)
    cert = min_terminal_pair_cut(art.instance)
    for i, j in cert.witness:
        assert 0 <= i < j < len(art.instance.disks)


def test_cut_requires_two_terminals():
    inst = disk_instance(radius=Fraction(1), disks=[Disk(Fraction(0), Fraction(0))],
                         meta={"terminal_disks": [0]})
    with pytest.raises(Malformed):
        min_terminal_pair_cut(inst)


def test_cut_of_touching_terminals_is_the_direct_edge():
    inst = disk_instance(
        radius=Fraction(1),
        disks=[Disk(Fraction(0), Fraction(0)), Disk(Fraction(1), Fraction(0))],
        meta={"terminal_disks": [0, 1]},
    )
    cert = min_terminal_pair_cut(inst)
    assert cert.optimum == 1 and cert.witness == [[0, 1]]


def test_cut_of_disconnected_terminals_is_empty():
    inst = disk_instance(
        radius=Fraction(1),
        disks=[Disk(Fraction(0), Fraction(0)), Disk(Fraction(9), Fraction(0))],
        meta={"terminal_disks": [0, 1]},
    )
    cert = min_terminal_pair_cut(inst)
    assert cert.optimum == 0 and cert.witness == []


def test_cut_lower_bound_on_touching_path():
    # 0-1-2 chain, terminals at the ends: each isolating cut is one edge,
    # so the bound is ceil(2/2) = 1 and that is also the true optimum.
    inst = disk_instance(
        radius=Fraction(1, 2),
        disks=[Disk(Fraction(k), Fraction(0)) for k in range(3)],
        meta={"terminal_disks": [0, 2]},
    )
    assert multiterminal_cut_lower_bound(inst) == 1


def test_cut_lower_bound_tight_on_touching_triangle():
    # three mutually intersecting disks, all terminals: every edge must go,
    # and ceil(3 * 2 / 2) = 3 meets that exactly.
    inst = disk_instance(
        radius=Fraction(1, 2),
        disks=[
            Disk(Fraction(0), Fraction(0)),
            Disk(Fraction(1), Fraction(0)),
            Disk(Fraction(1, 2), Fraction(1, 2)),
        ],
        meta={"terminal_disks": [0, 1, 2]},
    )
    assert multiterminal_cut_lower_bound(inst) == 3
    rep = verify_multiterminal_cut(inst, [(0, 1), (0, 2), (1, 2)])
    assert rep.ok


def test_cut_lower_bound_degenerate_cases():
    lone = disk_instance(
        radius=Fraction(1),
        disks=[Disk(Fraction(0), Fraction(0))],
        meta={"terminal_disks": [0]},
    )
    assert multiterminal_cut_lower_bound(lone) == 0
    apart = disk_instance(
        radius=Fraction(1),
        disks=[Disk(Fraction(0), Fraction(0)), Disk(Fraction(9), Fraction(0))],
        meta={"terminal_disks": [0, 1]},
    )
    assert multiterminal_cut_lower_bound(apart) == 0


@pytest.fixture(scope="module")
def udmc_targets():
    """The mc->udmc targets of the seeded cut instances that synthesize:
    931 to 1,256 disks with about 20 intersection edges per disk."""
    targets = []
    for seed in (1, 2):
        for mti in seeded_multiterminal_instances(seed, 4):
            try:
                targets.append(build_udmc_instance(mti, grid_embed(mti.graph)).instance)
            except SynthesisError:
                pass
    assert len(targets) == 5
    return targets


def with_terminals(inst, terminals):
    return DiskInstance(inst.radius, inst.centers, inst.tags,
                        meta={"terminal_disks": list(terminals)})


def test_udmc_target_graphs_match_bucket_oracle(udmc_targets):
    # the edge list built on first read is the bucket grid's eager one
    for inst in udmc_targets:
        assert_graph_matches_bucket_oracle(inst.centers, inst.radius)


def test_flows_match_networkx_min_cut_on_udmc_targets(udmc_targets):
    # each terminal against the rest: the value and the residual sink side
    for inst in udmc_targets:
        udg = unit_disk_graph(inst.centers, inst.radius)
        terminals = inst.meta["terminal_disks"]
        want = nx_isolating_cuts(udg.n, udg.edges, terminals)
        for t, cut in zip(terminals, want):
            others = [o for o in terminals if o != t]
            value, flow = edge_disjoint_paths(udg.adj, [t], others)
            assert (value, residual_sink_side(udg.adj, flow, others)) == cut, t


def test_two_terminal_bound_is_the_pair_cut_on_udmc_targets(udmc_targets):
    # one flow gives the bound, and the witness read from the sink side's
    # adjacency lists is the filter over the eager edge list
    for inst in udmc_targets:
        for pair in combinations(inst.meta["terminal_disks"], 2):
            two = with_terminals(inst, pair)
            cert = min_terminal_pair_cut(two)
            assert multiterminal_cut_lower_bound(two) == cert.optimum > 0
            assert cert.witness == pair_cut_by_edge_filter(two)
            assert verify_multiterminal_cut(two, cert.witness).ok


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 1000))
def test_ring_of_any_size_is_its_own_optimum(k, seed):
    import math
    n = 2 * k
    pts = []
    for j in range(n):
        ang = 2 * math.pi * j / n + seed * 0.001
        pts.append((Fraction(round(math.cos(ang) * 10**6), 10**6) * 4,
                    Fraction(round(math.sin(ang) * 10**6), 10**6) * 4))
    radius = Fraction(9, 4) * Fraction(round(math.sin(math.pi / n) * 10**6) + 2, 10**6) * 2
    inst = disk_instance(
        radius=radius,
        disks=[Disk(x, y) for x, y in pts],
        points={"p": (Fraction(0), Fraction(0)), "q": (Fraction(40), Fraction(0))},
    )
    try:
        cert = brute_min_isolation_two_points(inst)
    except Malformed:
        return  # radius rounding left the ring open or covered the center
    assert cert.optimum <= n
    assert verify_isolation(inst, cert.witness).ok
    for drop in cert.witness:
        assert not verify_isolation(inst, [i for i in cert.witness if i != drop]).ok
