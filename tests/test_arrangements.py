"""Disk-union topology, separation verdicts and cut/acyclicity verifiers."""

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from disklab import arrangements as ar
from disklab.base import Malformed
from disklab.geometry import (Disk, compute_params, rational_from_str, rational_to_str,
                              ray_crossing)
from disklab.graphs import edge_component_labels
from disklab.pipeline import indented_json, instance_json

from floodfill import flood_fill_summary, random_robust_centers
from instances import disk_instance, int_centers
from oracles import (
    BucketIndex,
    assert_graph_matches_bucket_oracle,
    dist_sq,
    pair_separation,
    pair_sweep,
    separation,
)

ONE = F(1)


def ring4(r=F(3, 2), points=None, meta=None):
    """Four disks in a ring, marked points "in" and "out" unless ``points``
    replaces them."""
    centers = [(F(2), F(0)), (F(0), F(2)), (F(-2), F(0)), (F(0), F(-2))]
    return disk_instance(
        r,
        [Disk(x, y, ("ring", i)) for i, (x, y) in enumerate(centers)],
        points={"in": (F(0), F(0)), "out": (F(10), F(10))} if points is None else points,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# intersection graph
# ---------------------------------------------------------------------------

def test_unit_disk_graph_tangency_counts():
    centers = [(F(0), F(0)), (F(2), F(0)), (F(5), F(0))]
    udg = ar.unit_disk_graph(int_centers(centers, ONE), ONE)
    assert udg.edges == [(0, 1)]
    assert udg.adj[0] == [1] and udg.adj[2] == []


def test_unit_disk_graph_empty():
    udg = ar.unit_disk_graph(int_centers([], ONE), ONE)
    assert udg.n == 0 and udg.edges == []


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=30)
def test_unit_disk_graph_matches_quadratic_scan(seed):
    rng = random.Random(seed)
    centers = [
        (F(rng.randint(-20, 20), rng.randint(1, 4)), F(rng.randint(-20, 20), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 18))
    ]
    udg = ar.unit_disk_graph(int_centers(centers, ONE), ONE)
    brute = [
        (i, j)
        for i in range(len(centers))
        for j in range(i + 1, len(centers))
        if dist_sq(centers[i], centers[j]) <= 4
    ]
    assert udg.edges == sorted(brute)


@st.composite
def cell_key_layouts(draw):
    """(centres, radius, queries): integer centres over one denominator on
    layouts that stress the cell keys, and proximity queries (point, rho)
    with rho <= 2r."""
    a, b, m = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    r, den, two_r = F(a, b), b * m, 2 * a * m  # 2r is two_r units of 1/den
    span = draw(st.sampled_from([two_r, 3 * two_r, 10 * two_r]))
    coord = st.integers(-span, span)
    kind = draw(st.sampled_from(["scatter", "column", "row", "corner", "boundary", "huge"]))
    if kind == "scatter":
        centres = draw(st.lists(st.tuples(coord, coord), max_size=24))
    elif kind == "corner":
        # a cluster around one cell corner, so diagonal cells touch
        x, y, near = draw(coord), draw(coord), st.integers(-two_r // 2, two_r // 2)
        x, y = x - x % (two_r + 1), y - y % (two_r + 1)
        offsets = draw(st.lists(st.tuples(near, near), max_size=12))
        centres = [(x + dx, y + dy) for dx, dy in offsets]
    elif kind in ("column", "row"):
        line, along = draw(coord), draw(st.lists(coord, max_size=24))
        centres = [(line, t) if kind == "column" else (t, line) for t in along]
    elif kind == "boundary":
        # pairs exactly 2r apart and 1/den farther, wherever the cell
        # boundaries fall; on 3-4-5 diagonals too when 2r allows
        steps = [(two_r, 0), (0, two_r), (two_r + 1, 0), (0, -two_r - 1)]
        if two_r % 5 == 0:
            u = two_r // 5
            steps += [(3 * u, 4 * u), (4 * u, -3 * u), (3 * u, 4 * u + 1)]
        centres = []
        for x, y, (dx, dy) in draw(st.lists(
                st.tuples(coord, coord, st.sampled_from(steps)), max_size=8)):
            centres += [(x, y), (x + dx, y + dy)]
    else:
        # 2**4000 units apart: the key width is a huge int, never a loop bound
        x, y = draw(coord), draw(coord)
        far = 2 ** 4000
        centres = [(x, y), (x, y + far), (x + far, y), (x + two_r, y + far)]
    centres += draw(st.lists(st.sampled_from(centres), max_size=4)) if centres else []
    far_out = st.integers(-50 * span, 50 * span)  # well past the occupied cells
    coordinate = st.builds(F, st.one_of(st.integers(-2 * span, 2 * span), far_out),
                           st.sampled_from([den, 1, 3, 7, 2 * den]))
    queries = draw(st.lists(st.tuples(
        coordinate, coordinate, st.sampled_from([r, r + r / 4, 2 * r, r / 3])), max_size=8))
    queries += [(F(x, den), F(y, den), 2 * r) for x, y in centres[:3]]
    return centres, r, den, queries


@given(cell_key_layouts())
@settings(max_examples=150, deadline=None)
@example(([], F(1), 1, [(F(0), F(0), F(2)), (F(-5, 3), F(10**9), F(1))]))
@example(([(-3, 7)], F(1, 2), 2, [(F(-3, 2), F(7, 2), F(1)), (F(-2), F(3), F(1, 2))]))
@example(([(-1, -1), (0, 0), (-1, 0), (0, -1)], F(1), 1, []))  # four cells at a corner
def test_cell_key_grid_matches_bucket_oracle(layout):
    centres, r, den, queries = layout
    sc = ar.IntCenters(tuple(x for x, _ in centres), tuple(y for _, y in centres), den)
    udg = assert_graph_matches_bucket_oracle(sc, r)
    oracle = BucketIndex(sc, r)
    for x, y, rho in queries:
        assert udg.index.within((x, y), rho) == oracle.within((x, y), rho), (x, y, rho)


@st.composite
def clustered_layouts(draw):
    """(centres, radius, den, queries): bundles of 2-20 near-coincident
    copies, whose boxes the sweep decides whole, on integer centres over
    one denominator.  Bundles straddle the index's sub-cell and column
    edges, sit in pairs whose boxes are exactly 2r, 2r +- 1/den or 2r√2
    apart, nearest or farthest, mix with single disks, or pile into one
    stacked block; queries (point, rho) have rho <= 2r."""
    a, b, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(
        st.sampled_from([1, 3, 40, 1000, 2**20]))
    r, den, two_r = F(a, b), b * m, 2 * a * m  # 2r is two_r units of 1/den
    index = ar.CenterIndex(ar.IntCenters((), (), den), r)
    sub = F(index.sub, index.scale)  # a sub-cell's side, in units
    assert 2 * sub**2 < two_r**2  # so one sub-cell's centres pairwise meet
    assert two_r < ar.SUB_CELLS * sub <= (two_r + 1) * (1 + F(1, ar.SUB_CELLS))  # a column
    spread = draw(st.integers(0, max(1, two_r // 100)))  # a bundle's box side
    coord = st.integers(-3 * two_r, 3 * two_r)

    def bundle(x, y):
        # its box is [x, x + spread] x [y, y + spread], with a disk at two
        # or four corners, so the boxes' distances are between disks
        near = st.integers(0, spread)
        corners = draw(st.sampled_from([[(0, 0), (spread, spread)],
                                        [(0, 0), (spread, 0), (0, spread), (spread, spread)]]))
        copies = draw(st.lists(st.tuples(near, near), max_size=16))
        return [(x + u, y + v) for u, v in corners + copies]

    kind = draw(st.sampled_from(["edges", "pairs", "mixed", "stack"]))
    centres = []
    if kind == "edges":
        # across a sub-cell edge, or a column edge (every SUB_CELLS sub-cells)
        for _ in range(draw(st.integers(1, 4))):
            j = draw(st.integers(-3, 3)) * draw(st.sampled_from([1, ar.SUB_CELLS]))
            x = math.floor(j * sub) - draw(st.integers(0, spread))
            y = math.floor(draw(st.integers(-3, 3)) * sub) - draw(st.integers(0, spread))
            centres += bundle(*draw(st.sampled_from([(x, y), (y, x)])))
    elif kind == "pairs":
        # the second box's nearest (e = spread) or farthest (e = -spread)
        # corner a step from the first's, here or across a column edge
        steps = [(two_r, 0), (0, two_r), (two_r + 1, 0), (two_r - 1, 0), (0, -two_r - 1),
                 (two_r, two_r), (-two_r, two_r), (1, two_r - 1), (1, 1 - two_r)]
        if two_r % 5 == 0:
            u = two_r // 5
            steps += [(3 * u, 4 * u), (4 * u, -3 * u), (3 * u, 4 * u + 1)]
        column = st.builds(lambda j, e: math.floor(j * ar.SUB_CELLS * sub) - e,
                           st.integers(-2, 2), st.integers(1, spread + 1))
        for _ in range(draw(st.integers(1, 3))):
            x, y = draw(st.one_of(coord, column)), draw(coord)
            dx, dy = draw(st.sampled_from(steps))
            e = draw(st.sampled_from([spread, -spread]))
            bx = x + dx + ((dx > 0) - (dx < 0)) * e
            by = y + dy + ((dy > 0) - (dy < 0)) * e
            centres += bundle(x, y) + bundle(bx, by)
    elif kind == "mixed":
        for _ in range(draw(st.integers(1, 5))):
            x, y = draw(coord), draw(coord)
            centres += bundle(x, y) if draw(st.booleans()) else [(x, y)]
    else:
        side = draw(st.integers(0, max(1, two_r // 50)))
        x, y, near = draw(coord), draw(coord), st.integers(0, side)
        centres = [(x + u, y + v) for u, v in draw(st.lists(st.tuples(near, near), max_size=60))]
    rng = random.Random(draw(st.integers(0, 2**16)))
    rng.shuffle(centres)  # bundles need not be contiguous in id order
    points = [F(x, den) for x, _ in centres[:4]], [F(y, den) for _, y in centres[:4]]
    queries = [(x + F(dx, den), y + F(dy, den), rho) for x, y in zip(*points)
               for dx, dy, rho in [(0, 0, 2 * r), (spread, -1, r), (two_r, 0, 2 * r)]]
    return centres, r, den, queries


@given(clustered_layouts())
@settings(max_examples=200, deadline=None)
@example(([(0, 0)] * 20, F(1), 1, [(F(0), F(0), F(2))]))  # one sub-cell, 20 copies
# two boxes neither wholly within 2r nor wholly beyond: tested pair by pair
@example(([(0, 0), (10, 10), (2000, 0), (2010, 10)], F(1), 1000, []))
def test_sub_cell_boxes_match_bucket_oracle(layout):
    centres, r, den, queries = layout
    sc = ar.IntCenters(tuple(x for x, _ in centres), tuple(y for _, y in centres), den)
    udg = assert_graph_matches_bucket_oracle(sc, r)
    oracle = BucketIndex(sc, r)
    for x, y, rho in queries:
        assert udg.index.within((x, y), rho) == oracle.within((x, y), rho), (x, y, rho)


def test_graph_equality_compares_n_edges_and_adj():
    sc = int_centers([(F(0), F(0)), (F(2), F(0)), (F(4), F(0))], ONE)
    udg = ar.unit_disk_graph(sc, ONE)
    assert udg.edges == [(0, 1), (1, 2)] and udg.adj == [[1], [0, 2], [1]]
    twin = ar.UnitDiskGraph(3, [[1], [0, 2], [1]], udg.index)
    assert twin == udg
    assert ar.UnitDiskGraph(4, [[1], [0, 2], [1], []], udg.index) != udg
    assert ar.UnitDiskGraph(3, [[1], [0], []], udg.index) != udg
    twin.edges = [(0, 1)]
    assert twin != udg


def test_components():
    centers = [(F(0), F(0)), (F(1), F(0)), (F(10), F(0)), (F(11), F(0))]
    udg = ar.unit_disk_graph(int_centers(centers, ONE), ONE)
    assert edge_component_labels(udg.n, udg.edges) == [0, 0, 2, 2]


# ---------------------------------------------------------------------------
# complement topology
# ---------------------------------------------------------------------------

def test_filled_trio_has_no_hole():
    centers = [(F(0), F(0)), (F(2), F(0)), (F(1), F(1))]
    rs = ar.complement_regions(int_centers(centers, ONE), ONE)
    assert rs.union_components == 1
    assert rs.bounded_complement_regions == 0
    assert rs.nerve_triangles == 1


def test_open_trio_has_one_hole():
    centers = [(F(0), F(0)), (F(2), F(0)), (F(1), F(17, 10))]
    rs = ar.complement_regions(int_centers(centers, ONE), ONE)
    assert rs.union_components == 1
    assert rs.bounded_complement_regions == 1
    assert rs.nerve_triangles == 0


def test_two_separate_rings_two_holes():
    ring = [(F(2), F(0)), (F(0), F(2)), (F(-2), F(0)), (F(0), F(-2))]
    far = [(x + 20, y) for x, y in ring]
    rs = ar.complement_regions(int_centers(ring + far, F(3, 2)), F(3, 2))
    assert rs.union_components == 2
    assert rs.bounded_complement_regions == 2


def test_duplicate_disks_change_nothing():
    centers = [(F(0), F(0)), (F(2), F(0)), (F(1), F(17, 10))]
    rs1 = ar.complement_regions(int_centers(centers, ONE), ONE)
    rs2 = ar.complement_regions(int_centers(centers + centers[:1], ONE), ONE)
    assert rs1.union_components == rs2.union_components
    assert rs1.bounded_complement_regions == rs2.bounded_complement_regions


def test_single_disks_and_chains():
    assert ar.complement_regions(int_centers([(F(0), F(0))], ONE), ONE) \
        .bounded_complement_regions == 0
    chain = [(F(i), F(0)) for i in range(8)]
    rs = ar.complement_regions(int_centers(chain, ONE), ONE)
    assert rs.union_components == 1
    assert rs.bounded_complement_regions == 0


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def test_ring_separates_inside_from_outside():
    inst = ring4()
    udg = ar.unit_disk_graph(inst.centers, inst.radius)
    res = separation(inst.centers, udg, (F(0), F(0)), (F(10), F(10)))
    assert res.separated
    cyc = res.witness_cycle
    assert cyc is not None and len(cyc) >= 3
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert dist_sq(inst.disks[a].center, inst.disks[b].center) <= 4 * inst.radius ** 2


def test_no_separation_without_cycle():
    inst = ring4(r=F(13, 10))  # gaps between consecutive disks
    udg = ar.unit_disk_graph(inst.centers, inst.radius)
    res = separation(inst.centers, udg, (F(0), F(0)), (F(10), F(10)))
    assert not res.separated and res.witness_cycle is None


def test_separation_is_symmetric_and_reflexive_false():
    inst = ring4()
    centers = inst.centers
    udg = ar.unit_disk_graph(centers, inst.radius)
    p, q = (F(0), F(0)), (F(10), F(10))
    assert separation(centers, udg, p, q).separated
    assert separation(centers, udg, q, p).separated
    assert not separation(centers, udg, q, q).separated


def test_separation_with_centres_on_the_ray_line():
    inst = ring4()
    # p's ray runs through the center (2, 0), and q shares the line of the
    # centers (+-2, 0); the second input adds an intersecting pair lying
    # along both rays
    ring = [d.center for d in inst.disks]
    for centers in (ring, ring + [(F(20), F(0)), (F(22), F(0))]):
        sc = int_centers(centers, inst.radius)
        udg = ar.unit_disk_graph(sc, inst.radius)
        res = separation(sc, udg, (F(0), F(0)), (F(4), F(0)))
        assert res.separated


def test_verify_isolation_with_disk_centres_on_every_probe_path():
    # One pair of overlapping disks centred on the first-leg midpoint of each
    # of 48 polyline paths from p to q (the straight segment, then paths bent
    # at b_k): a verifier that counted crossings along any of these paths
    # would meet a disk centre on every one and refuse the instance.
    r = F(1, 1000)
    bends = [(F(10), F(0))] + [
        (5 + 10 * F(2 * k + 3, 7 * k * k + 11 * k + 13),
         10 * F((-1) ** k * (2 * k + 1), 3 * k * k + 7))
        for k in range(1, 48)
    ]
    disks = []
    for bx, by in bends:
        disks += [Disk(bx / 2, by / 2), Disk(bx / 2 + r, by / 2)]
    inst = disk_instance(r, disks, points={"p": (F(0), F(0)), "q": (F(10), F(0))})
    rep = ar.verify_isolation(inst, range(len(disks)))
    assert rep == (False, [f"chosen disks: {len(disks)}", "FAIL p | q separated: False"])


def test_far_disks_do_not_affect_separation():
    inst = ring4()
    sc = int_centers([d.center for d in inst.disks] + [(F(50), F(50)), (F(53), F(50))],
                     inst.radius)
    udg = ar.unit_disk_graph(sc, inst.radius)
    res = separation(sc, udg, (F(0), F(0)), (F(10), F(10)))
    assert res.separated


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_isolation_accepts_full_ring():
    inst = ring4()
    rep = ar.verify_isolation(inst, [0, 1, 2, 3])
    assert rep == (True, ["chosen disks: 4", "ok   in | out separated: True"])
    udg = ar.unit_disk_graph(inst.centers, inst.radius)
    [res] = ar.separation(inst.centers, udg, inst.points).values()
    assert res.separated and sorted(res.witness_cycle) == [0, 1, 2, 3]


def test_verify_isolation_rejects_partial_ring():
    rep = ar.verify_isolation(ring4(), [0, 1, 2])
    assert not rep.ok


def test_verify_isolation_budget_and_ids():
    inst = ring4()
    rep = ar.verify_isolation(inst, [0, 1, 2, 3], budget=3)
    assert rep == (False, ["chosen disks: 4", "ok   in | out separated: True",  # over budget
                           "budget: certificate uses 4 disks, cap 3"])
    with pytest.raises(Malformed, match="out-of-range"):
        ar.verify_isolation(inst, [0, 9])
    assert ar.verify_isolation(inst, [0, 1, 2, 3], budget=4).ok


def test_verify_isolation_rejects_covered_point():
    inst = ring4(points={"in": (F(0), F(0)), "out": (F(10), F(10)),
                         "bad": (F(2), F(0))})  # the center of disk 0
    with pytest.raises(Malformed, match="covered"):
        ar.verify_isolation(inst, [0, 1, 2, 3])


def square_ring(p):
    """Sixteen tangent disks of radius 1/2 on the boundary of [-2, 2]^2,
    with marked points ``p`` (inside) and ``q`` (outside)."""
    side = [F(k) for k in range(-2, 2)]
    centers = ([(k, F(-2)) for k in side] + [(F(2), k) for k in side]
               + [(-k, F(2)) for k in side] + [(F(-2), -k) for k in side])
    return disk_instance(F(1, 2), [Disk(x, y) for x, y in centers],
                         points={"p": p, "q": (F(5), F(0))})


def test_marked_point_at_exactly_r_is_covered():
    from disklab.solvers import brute_min_isolation_two_points

    tangent = square_ring((F(3, 2), F(0)))   # distance r from the disk at (2, 0)
    index = ar.CenterIndex(tangent.centers, tangent.radius)
    assert index.within(tangent.points["p"], tangent.radius) == [6]
    with pytest.raises(Malformed, match="'p' is covered by disk 6"):
        ar.verify_isolation(tangent, range(16))
    with pytest.raises(Malformed, match="'p' is covered by disk 6"):
        brute_min_isolation_two_points(tangent)

    clear = square_ring((F(3, 2) - F(1, 1000), F(0)))   # distance r + 1/1000
    assert ar.verify_isolation(clear, range(16)).ok
    assert brute_min_isolation_two_points(clear).optimum == 16


def test_verify_isolation_needs_two_points():
    inst = ring4(points={"only": (F(0), F(0))})
    with pytest.raises(Malformed, match="two marked points"):
        ar.verify_isolation(inst, [0])


def test_verify_acc():
    centers = [(F(0), F(0)), (F(2), F(0)), (F(1), F(17, 10))]
    inst = disk_instance(ONE, [Disk(x, y) for x, y in centers])
    assert ar.verify_acc(inst, []) == (
        False, ["removed disks: 0", "FAIL remaining union has 1 bounded complement region(s)"])
    rep = ar.verify_acc(inst, [1])
    assert rep == (
        True, ["removed disks: 1", "ok   remaining union has 0 bounded complement region(s)"])
    assert ar.complement_regions(inst.centers.subset([0, 2]), ONE).bounded_complement_regions == 0
    assert ar.verify_acc(inst, [0, 1], budget=1).lines[2:] == [
        "budget: certificate removes 2 disks, cap 1"]


def test_verify_multiterminal_cut():
    chain = [Disk(F(2 * i), F(0)) for i in range(5)]
    inst = disk_instance(ONE, chain, meta={"kind": "udmc", "terminal_disks": [0, 4]})
    assert ar.verify_multiterminal_cut(inst, [(2, 3)]).ok
    assert not ar.verify_multiterminal_cut(inst, []).ok
    rep = ar.verify_multiterminal_cut(inst, [(1, 2), (2, 3)], budget=1)
    assert rep == (False, ["removed intersection edges: 2", "FAIL 2 terminals in 2 component(s)",
                           "budget: certificate removes 2 edges, cap 1"])
    assert ar.verify_multiterminal_cut(inst, []).lines[1:] == [
        "FAIL 2 terminals in 1 component(s)", "two terminal disks stay connected"]
    # adj[-2] is disk 3's row, which holds 4; adj[5] does not exist
    for pair in [(0, 4), (-2, 4), (4, 5), (5, 6), (-1, 7)]:
        with pytest.raises(Malformed, match="not an intersection edge"):
            ar.verify_multiterminal_cut(inst, [pair])
    with pytest.raises(Malformed, match="not an edge"):
        ar.verify_multiterminal_cut(inst, [(2, 2)])
    for terminals in ([0.0, 4], [True, 4]):
        with pytest.raises(Malformed, match="JSON integers"):
            disk_instance(ONE, chain, meta={"kind": "udmc", "terminal_disks": terminals})
    one = disk_instance(ONE, chain, meta={"kind": "udmc", "terminal_disks": [0]})
    with pytest.raises(Malformed, match="two terminal"):
        ar.verify_multiterminal_cut(one, [(2, 3)])


@pytest.mark.parametrize("radius, points, terminals, why", [
    (F(0), None, [0, 4], "radius must be positive"),
    (-ONE, None, [0, 4], "radius must be positive"),
    (ONE, {"p": (F(9), F(0)), "q": (F(9), F(0))}, [0, 4], "marked points must be distinct"),
    (ONE, None, [0, 4.0], "terminal disk ids must be JSON integers"),
    (ONE, None, [0, "4"], "terminal disk ids must be JSON integers"),
    (ONE, None, [0, 5], "terminal disk id 5 out of range"),
    (ONE, None, [-1, 4], "terminal disk id -1 out of range"),
    (ONE, None, [4, 4], "terminal disk ids must be distinct"),
])
def test_a_disk_instance_checks_itself_at_construction(radius, points, terminals, why):
    chain = [Disk(F(2 * i), F(0)) for i in range(5)]
    with pytest.raises(Malformed, match=f"^{why}$"):
        disk_instance(radius, chain, points=points,
                      meta={"kind": "udmc", "terminal_disks": terminals})


def test_instance_round_trip_and_validation():
    inst = ring4(meta={"kind": "isolation", "budget": 4})
    again = ar.DiskInstance.from_dict(inst.to_dict())
    assert again.radius == inst.radius
    assert again.disks == inst.disks
    assert again.points == inst.points
    assert again.meta == inst.meta

    bad = inst.to_dict()
    bad["radius"] = "-1/2"
    with pytest.raises(Malformed, match="radius"):
        ar.DiskInstance.from_dict(bad)


# ---------------------------------------------------------------------------
# agreement with the raster oracle
# ---------------------------------------------------------------------------

def test_flood_fill_agreement_sample():
    rng = random.Random(987123)
    for _ in range(40):
        centers = random_robust_centers(rng)
        exact = ar.complement_regions(int_centers(centers, ONE), ONE)
        occ, holes = flood_fill_summary(centers, ONE)
        assert occ == exact.union_components
        assert holes == exact.bounded_complement_regions


# ---------------------------------------------------------------------------
# integer-native reads against the Fraction oracles
# ---------------------------------------------------------------------------

def fraction_parse(d):
    """Radius and disks of an instance dict read the way the parse did
    before instances held integer centres: a Fraction per coordinate and a
    Disk per entry (the oracle for ``DiskInstance.from_dict``)."""
    disks = [
        Disk(rational_from_str(e["c"][0]), rational_from_str(e["c"][1]),
             tuple(e.get("prov", ())))
        for e in d["disks"]
    ]
    return rational_from_str(d["radius"]), disks


def outcome(f):
    try:
        return "ok", f()
    except Exception as exc:  # the oracle comparison covers every refusal
        return "raised", type(exc), str(exc)


canonical_rationals = st.builds(
    lambda n, d, k: f"{n * k}/{d * k}",
    st.integers(-10**30, 10**30), st.integers(1, 10**30), st.sampled_from([1, 1, 2, 6, 2**40]))
coordinate_spellings = st.one_of(
    canonical_rationals,
    st.sampled_from([
        "6/4", "-0/5", "0/0", "-3/0", "3/-4", "+3/4", " 3/4", "3/4 ", "3 / 4", "1.5",
        "1e-3", "3_0/4", "--3/4", "3//4", "/4", "3/", "", "-", "0x10/3", "3/4/5",
        "007/010", "1.5/2", "\u0663/\u0664", "3/\u0664", "\uff13/4", "\u00b2/3",
        "1" * 4400 + "/3", "-" + "7" * 4301 + "/9", "3/" + "1" * 4400, "1" * 4300 + "/7",
    ]),
    st.text(alphabet="0123456789-+/ ._eE\u0663", max_size=8),
    st.integers(-10**6, 10**6), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False), st.just([1, 2]),
)


@given(st.lists(st.tuples(coordinate_spellings, coordinate_spellings,
                          st.lists(st.one_of(st.text(max_size=3), st.integers()), max_size=3)),
                max_size=4),
       st.sampled_from(["1/2", "3/8", "1/3240", "2"]))
@settings(max_examples=400, deadline=None)
def test_parse_matches_fraction_oracle(entries, radius):
    d = {"radius": radius,
         "disks": [{"c": [x, y], "prov": prov} for x, y, prov in entries],
         "points": {"p": ["1/3", "0/1"], "q": ["5/1", "-1/7"]}}
    got = outcome(lambda: ar.DiskInstance.from_dict(d))
    want = outcome(lambda: fraction_parse(d))
    assert got[0] == want[0]
    if want[0] == "raised":
        assert got == want
        return
    inst, (r, disks) = got[1], want[1]
    assert inst.radius == r and inst.disks == disks
    assert tuple(inst.tags) == tuple(disk.tag for disk in disks)
    assert inst.centers == int_centers([disk.center for disk in disks], r)


@given(st.lists(st.tuples(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40)),
                max_size=6),
       st.integers(1, 10**40), st.sampled_from([1, 2, 6, 2**34, 10**40]))
@example([(0, 0), (-6, 4), (3 * 10**40, -10**40)], 6, 1)
def test_to_dict_coordinates_match_rational_to_str(nums, den, k):
    # numerators and the denominator share the factor k, so most are not
    # in lowest terms
    xs = tuple(x * k for x, _ in nums)
    ys = tuple(y * k for _, y in nums)
    inst = ar.DiskInstance(ONE, ar.IntCenters(xs, ys, den * k), [()] * len(nums))
    got = [e["c"] for e in inst.to_dict()["disks"]]
    assert got == [[rational_to_str(F(x, den * k)), rational_to_str(F(y, den * k))]
                   for x, y in zip(xs, ys)]


# ---------------------------------------------------------------------------
# the text reader against json.loads + from_dict
# ---------------------------------------------------------------------------

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                         st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4))
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
# an int run (prefix, first, count), or one whole tag of any JSON values
tag_items = st.one_of(
    st.tuples(st.lists(st.one_of(st.text(max_size=4), st.integers(-5, 5)), max_size=3),
              st.integers(-3, 3), st.integers(1, 4)),
    st.lists(json_values, max_size=3))
small_rationals = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


def run_tags(items):
    """The tags the drawn items spell, run by run."""
    tags = []
    for item in items:
        if isinstance(item, tuple):
            prefix, first, count = item
            tags += [(*prefix, first + j) for j in range(count)]
        else:
            tags.append(tuple(item))
    return tags


def assert_reads_alike(text):
    """``from_text`` gives None or the instance ``from_dict`` reads from
    ``json.loads(text)``, never an exception; the instance it gives when
    ``from_dict`` refuses the text is None.  Returns what it gave."""
    fast = ar.DiskInstance.from_text(text)
    got = outcome(lambda: ar.DiskInstance.from_dict(json.loads(text)))
    if fast is not None:
        # equal radius, tag runs, points, params and meta, and the same
        # integer centres, not only equal rationals
        assert got[0] == "ok" and fast == got[1] and fast.centers == got[1].centers
    return fast


@given(st.lists(tag_items, max_size=6),
       st.sampled_from([F(1, 2), F(3, 8), F(2), F(1, 3240)]), st.sampled_from([1, 6, 2**40]),
       st.data(),
       st.lists(st.tuples(st.text(max_size=3), st.tuples(small_rationals, small_rationals)),
                max_size=3, unique_by=(lambda kv: kv[0], lambda kv: kv[1])).map(dict),
       st.sampled_from([None, compute_params(2, "toy"), compute_params(3, "sound")]),
       st.dictionaries(st.text(max_size=4).filter(lambda k: k != "terminal_disks"),
                       json_values, max_size=3))
@settings(max_examples=300, deadline=None)
def test_the_text_reader_matches_from_dict_on_written_instances(
        items, r, k, data, points, params, meta):
    tags = run_tags(items)
    den = r.denominator * k
    coords = st.integers(-10**18, 10**18)
    xs = data.draw(st.lists(coords, min_size=len(tags), max_size=len(tags)))
    ys = data.draw(st.lists(coords, min_size=len(tags), max_size=len(tags)))
    inst = ar.DiskInstance(r, ar.IntCenters(tuple(xs), tuple(ys), den), tags, points,
                           params, meta)
    text = instance_json(inst)[0]
    fast = assert_reads_alike(text)
    # only a prov whose text holds a "]" (a nested list, or a string with
    # one) is left to the tree, and a file with no disks
    assert (fast is None) == (not tags or any("]" in json.dumps(list(t))[1:-1] for t in tags))
    if fast is not None:
        assert fast == inst


@given(st.lists(st.tuples(coordinate_spellings, coordinate_spellings,
                          st.one_of(st.lists(json_values, max_size=3), json_scalars)),
                max_size=4),
       st.sampled_from(["1/2", "3/8", "1/3240", "2", "0/1", True]))
@settings(max_examples=300, deadline=None)
def test_the_text_reader_matches_from_dict_on_any_spelling(entries, radius):
    # indented_json writes the layout instance_json does, whatever the values
    d = {"radius": radius,
         "disks": [{"c": [x, y], "prov": prov} for x, y, prov in entries],
         "points": {"p": ["1/3", "0/1"], "q": ["5/1", "-1/7"]}}
    assert_reads_alike(indented_json(d) + "\n")


def test_the_text_reader_leaves_what_it_does_not_decide_to_the_tree(monkeypatch):
    inst = ring4(meta={"kind": "isolation"})
    text = instance_json(inst)[0]
    assert ar.DiskInstance.from_text(text) == inst

    def first_x(spelling):
        return text.replace('"2/1"', spelling, 1)

    for spelt in [
        first_x('"1/0"'),                                 # a zero denominator
        first_x('"' + "1" * 5000 + '/1"'),                # past int's digit limit
        first_x('"6/4"').replace("{", "{ ", 1),           # another layout
        text.replace('\n  "meta"', '\n  "disks": [],\n  "meta"'),   # "disks" again
        text.replace('"radius": "3/2"', '"radius": "-3/2"'),    # a head from_dict refuses
        text.replace('"ring",', '{"a":' * 100000 + "0" + "}" * 100000 + ",", 1),   # too deep
        text[:-5],                                        # cut short
        text + "x",                                       # trailing bytes
        "\ufeff" + text,                                  # a byte order mark
    ]:
        assert spelt != text
        assert ar.DiskInstance.from_text(spelt) is None
        assert_reads_alike(spelt)
    # spellings that read the same are read the same, runs and all
    for spelt in [
        first_x('"6/3"'),
        text.replace('"ring",\n        1\n', '"\\u0072ing",\n        1\n'),
        text.replace('"ring",\n        0\n', '"ring",\n        -0\n'),
        text.replace('"ring",\n        0\n', '"ring"  ,  0\n'),
    ]:
        assert spelt != text
        assert assert_reads_alike(spelt) == inst
        assert ar.DiskInstance.from_text(spelt).tags.runs == [(0, ("ring",), 0)]
    # a last of "-0" then "-1": 0 and -1, two runs, not one spelt "-0", "-1"
    spelt = text.replace('"ring",\n        0\n', '"ring",\n        -0\n').replace(
        '"ring",\n        1\n', '"ring",\n        -1\n')
    assert assert_reads_alike(spelt).tags.runs == [
        (0, ("ring",), 0), (1, ("ring",), -1), (2, ("ring",), 2)]
    # more entries than MAX_DISKS: none is read past the cap
    monkeypatch.setattr(ar, "MAX_DISKS", 3)
    assert ar.DiskInstance.from_text(text) is None
    monkeypatch.setattr(ar, "MAX_DISKS", 4)
    assert ar.DiskInstance.from_text(text) == inst


def test_parsed_disks_are_built_on_demand_and_kept():
    inst = ring4(meta={"kind": "isolation"})
    again = ar.DiskInstance.from_dict(inst.to_dict())
    assert tuple(again.tags) == tuple(d.tag for d in inst.disks)
    assert again.disks is again.disks and again.disks == inst.disks
    assert again == inst and repr(again) == repr(inst)
    with pytest.raises(TypeError):
        ar.DiskInstance(radius=ONE)


def fraction_edge_crossing_parities(centers, udg, p, q):
    """Edge parities with ``ray_crossing`` on Fraction centres and points
    (the oracle for the integer sweep)."""
    parity = {}
    for (i, j) in udg.edges:
        ci, cj = centers[i], centers[j]
        parity[(i, j)] = (ray_crossing(ci, cj, p) ^ ray_crossing(ci, cj, q)) & 1
    return parity


def lattice_layout(rng):
    """Centres on a quarter lattice (rings and random clumps), and points
    that share rows with centres, sit on the lattice, or have denominators
    3, 5 or 7, which do not divide the centres' denominator."""
    r = rng.choice([F(1, 2), F(3, 4), F(5, 8)])
    centers = set()
    for _ in range(rng.randint(1, 3)):
        cx, cy = F(rng.randint(-16, 16), 4), F(rng.randint(-16, 16), 4)
        k = rng.randint(2, 4)
        for i in range(-k, k + 1):
            for j in (-k, k):
                if rng.random() < 0.9:
                    centers.add((cx + i * r, cy + j * r))
                    centers.add((cx + j * r, cy + i * r))
    for _ in range(rng.randint(0, 12)):
        centers.add((F(rng.randint(-24, 24), 4), F(rng.randint(-24, 24), 4)))
    centers = sorted(centers)
    rows = sorted({y for _, y in centers})
    points = []
    for _ in range(4):
        kind = rng.random()
        if kind < 0.4:
            y = rng.choice(rows)
        elif kind < 0.7:
            y = F(rng.randint(-24, 24), 4)
        else:
            y = F(rng.randint(-40, 40), rng.choice([3, 5, 7]))
        x = F(rng.randint(-40, 40), rng.choice([1, 3, 4, 5, 7]))
        points.append((x, y))
    return centers, r, points


def test_integer_parity_and_separation_match_fraction_oracle():
    rng = random.Random(161803)
    parities, verdicts = [], []
    for centers, r, points in (lattice_layout(rng) for _ in range(150)):
        sc = int_centers(centers, r)
        udg = ar.unit_disk_graph(sc, r)
        assert udg.edges == [
            (i, j) for i in range(len(centers)) for j in range(i + 1, len(centers))
            if dist_sq(centers[i], centers[j]) <= 4 * r * r
        ]
        masks = ar.edge_crossing_parities(sc, udg, points)
        for t, p in enumerate(points):
            assert [(m >> t) & 1 for m in masks] == [
                ray_crossing(centers[i], centers[j], p) & 1 for i, j in udg.edges]
        named = {f"p{t}": p for t, p in enumerate(points)}
        for (a, b), res in ar.separation(sc, udg, named).items():
            # the per-pair sweep on the Fraction parities is the old separation
            want = fraction_edge_crossing_parities(centers, udg, named[a], named[b])
            assert res == pair_sweep(udg, want) == pair_separation(sc, udg, named[a], named[b])
            parities.append(sum(want.values()))
            verdicts.append(res)
    assert len(verdicts) == 900
    assert sum(1 for x in parities if x) >= 100
    assert 40 <= sum(1 for v in verdicts if v.separated) <= len(verdicts) - 40
