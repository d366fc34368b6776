"""Synthesis checks: walls, rings, anchors, hubs, lanes.

Pinned counts below are derived: a toy triangle drawn with legs 1, 1, sqrt 2
admits a uniform per-edge budget of 7 (spacing stays inside (1.02r, 1.95r)
on every edge), so the instance has 3*7 + 3 = 24 disks; the sound grid-2
schedule gives 882 disks per wall and 76 per ring, hence 3*882 + 3*76 = 2874
for the same shape.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from disklab import gadgets
from disklab.arrangements import (
    DiskInstance,
    IntCenters,
    complement_regions,
    normalize_edge_list,
    unit_disk_graph,
    verify_isolation,
    verify_multiterminal_cut,
)
from disklab.gadgets import (
    BUNDLE_COPIES,
    Snapper,
    StructureSpec,
    SynthesisError,
    build_acc_instance,
    build_isolation_instance,
    build_udmc_instance,
    check_structure,
    lift_fence_to_edges,
    lift_multiterminal_to_udmc,
    lift_vertex_set_to_acc,
    perturb_copy,
    toy_edge_budget,
    _sound_wall_plan,
    _toy_wall_plan,
    _walk_polyline,
)
from disklab.corpus import seeded_multiterminal_instances, seeded_planar_graphs
from disklab.geometry import Disk, compute_params
from disklab.pipeline import canonical_digest, instance_json
from disklab.base import Malformed
from disklab.graphs import (
    Graph,
    MultiterminalInstance,
    PlanarEmbeddedGraph,
    SubdivisionInstance,
    component_labels,
    reduce_pmc_to_subdivision,
)
from disklab.gridembed import DrawingError, GridEmbedding, grid_embed, locate_face

import oracles
from instances import build_weighted_edge_instance, disk_instance
from oracles import (
    assert_cuts_match_networkx,
    dist_sq,
    lift_fence_by_tags,
    reference_verify_multiterminal_cut,
)


def p2_reduction():
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v")], {"u": [0], "v": [0]})
    return reduce_pmc_to_subdivision(
        MultiterminalInstance(graph=g, terminals=["u", "v"]))


def toy_triangle():
    red = p2_reduction()
    emb = grid_embed(red.instance.graph)
    base = compute_params(emb.grid_size, "toy")
    params = base._replace(c_edge=toy_edge_budget(emb, base))
    art = build_isolation_instance(red.instance, emb, params)
    return red, emb, art


def build_sound(sub, emb):
    """The sound isolation instance of a drawn subdivision instance."""
    return build_isolation_instance(sub, emb, compute_params(emb.grid_size))


# ---------------------------------------------------------------------------
# chain placement machinery
# ---------------------------------------------------------------------------

def test_walk_polyline_endpoints_and_uniformity():
    pts = _walk_polyline([(0.0, 0.0), (10.0, 0.0)], 6)
    assert pts[0] == (0.0, 0.0) and pts[-1] == (10.0, 0.0)
    xs = [p[0] for p in pts]
    steps = [b - a for a, b in zip(xs, xs[1:])]
    assert all(abs(s - 2.0) < 1e-12 for s in steps)


def test_walk_polyline_respects_corners():
    pts = _walk_polyline([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)], 5)
    assert pts[2] == pytest.approx((2.0, 0.0))  # arclength midpoint is the corner


def test_walk_polyline_rejects_tiny_counts():
    with pytest.raises(SynthesisError):
        _walk_polyline([(0.0, 0.0), (1.0, 0.0)], 1)


def test_snapper_is_fine_and_rational():
    r = Fraction(1, 640)
    sn = Snapper(r)
    x = Fraction(sn.numerator(0.123456789), sn.M)
    assert abs(x - Fraction(0.123456789)) <= Fraction(1, 2 * sn.M)
    assert sn.M == 640 * 2**34


SNAP_RADII = [compute_params(2, "sound").r, compute_params(3, "sound").r, Fraction(1, 10)]


@pytest.mark.parametrize("r", SNAP_RADII, ids=str)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-0.0)
@example(x=5e-324)
@example(x=-2.2250738585072014e-308)
@example(x=1.7976931348623157e308)
@example(x=-123456.789)
def test_snapper_numerator_is_fraction_rounding(r, x):
    sn = Snapper(r)
    assert sn.numerator(x) == round(Fraction(x) * sn.M)


@pytest.mark.parametrize("r", SNAP_RADII, ids=str)
@given(k=st.integers(min_value=-(2**51), max_value=2**51))
def test_snapper_numerator_breaks_exact_ties_to_even(r, k):
    # x * M is exactly halfway between two integers when x = (2k+1) / 2**j
    # and 2**(j-1) is the power of two in M
    sn = Snapper(r)
    twos = (sn.M & -sn.M).bit_length() - 1
    x = math.ldexp(2 * k + 1, -(twos + 1))
    exact = Fraction(x) * sn.M
    assert exact.denominator == 2
    assert sn.numerator(x) == round(exact)
    assert sn.numerator(x) % 2 == 0


# ---------------------------------------------------------------------------
# wall plans
# ---------------------------------------------------------------------------

def test_sound_wall_short_edge_detours():
    p = compute_params(2, "sound")
    plan = _sound_wall_plan(0.0, 0.0, 1.0, 0.0, p)
    assert len(plan.centers) == p.c_edge == 882
    assert 1.45 <= plan.spacing_over_r <= 1.95
    # detour stays inside the half-corridor
    assert all(abs(y) <= float(p.h) / 2 for _, y in plan.centers)
    assert any(abs(y) > float(p.r) for _, y in plan.centers)


def test_sound_wall_long_diagonal_is_straight():
    p = compute_params(2, "sound")
    plan = _sound_wall_plan(0.0, 0.0, 2.0, 2.0, p)
    assert len(plan.centers) == 882
    assert 1.95 <= plan.spacing_over_r < 2.0
    for (x, y) in plan.centers:
        assert abs(y - x) < 1e-9  # on the diagonal


def test_sound_wall_detour_outside_vertex_zones():
    p = compute_params(2, "sound")
    plan = _sound_wall_plan(0.0, 0.0, 1.0, 0.0, p)
    guard = float(p.s + p.a) * 0.999
    for (x, y) in plan.centers:
        if abs(y) > 1e-12:
            assert guard <= x <= 1.0 - guard


def test_toy_wall_spacing_window():
    p = compute_params(2, "toy")._replace(c_edge=7)
    plan = _toy_wall_plan(0.0, 0.0, 1.0, 0.0, p)
    assert len(plan.centers) == 7
    assert 1.02 <= plan.spacing_over_r <= 1.95
    with pytest.raises(SynthesisError):
        _toy_wall_plan(0.0, 0.0, 3.0, 0.0, p)  # too long for 7 disks


def test_toy_edge_budget_triangle():
    red = p2_reduction()
    emb = grid_embed(red.instance.graph)
    assert toy_edge_budget(emb, compute_params(emb.grid_size, "toy")) == 7


def test_toy_edge_budget_refuses_stretched_drawings():
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": [0], "b": [0, 1], "c": [1]})
    from disklab.gridembed import GridEmbedding
    emb = GridEmbedding(graph=g, coords={"a": (0, 0), "b": (1, 0), "c": (1, 4)},
                        grid_size=4)
    with pytest.raises(SynthesisError):
        toy_edge_budget(emb, compute_params(2, "toy"))


# ---------------------------------------------------------------------------
# structure checking
# ---------------------------------------------------------------------------

def chain_instance(xs, r=Fraction(1, 2)):
    return disk_instance(r, [Disk(Fraction(x), Fraction(0), ("c", k)) for k, x in enumerate(xs)])


def test_check_structure_accepts_clean_chain():
    inst = chain_instance([0, Fraction(9, 10), Fraction(18, 10)])
    rep = check_structure(inst, StructureSpec())
    assert rep.ok and rep.violations == []


def test_check_structure_flags_broken_chain():
    inst = chain_instance([0, Fraction(9, 10), Fraction(30, 10)])
    rep = check_structure(inst, StructureSpec())
    assert not rep.ok
    assert any("consecutive contacts" in v for v in rep.violations)


def test_check_structure_flags_nonconsecutive_touch():
    inst = chain_instance([0, Fraction(7, 10), Fraction(10, 10)])
    rep = check_structure(inst, StructureSpec())
    assert not rep.ok
    assert any("index gap 2" in v for v in rep.violations)


def test_check_structure_flags_forbidden_and_missing_contacts():
    disks = [Disk(Fraction(0), Fraction(0), ("a",)), Disk(Fraction(1, 2), Fraction(0), ("b",))]
    inst = disk_instance(Fraction(1, 2), disks)
    rep = check_structure(inst, StructureSpec())
    assert not rep.ok and any("forbidden" in v for v in rep.violations)
    spec = StructureSpec(allowed_contacts={(("a",), ("b",)): (2, 3)})
    rep = check_structure(inst, spec)
    assert not rep.ok and any("wanted [2, 3]" in v for v in rep.violations)


def test_check_structure_flags_a_broken_ring():
    # four disks on a square of side 9/10 touch their neighbours only;
    # moving the last corner out loses its one contact with the first disk
    square = [(0, 0), (Fraction(9, 10), 0), (Fraction(9, 10), Fraction(9, 10)),
              (0, Fraction(9, 10))]

    def ring(corners):
        return disk_instance(Fraction(1, 2), [Disk(Fraction(x), Fraction(y), ("r", k))
                                              for k, (x, y) in enumerate(corners)])

    spec = StructureSpec(rings={("r",)})
    assert check_structure(ring(square), spec).ok
    rep = check_structure(ring(square[:3] + [(Fraction(-1, 20), Fraction(21, 20))]), spec)
    assert rep.violations == ["ring ('r',): broken cycle"]
    # a two-disk ring closes with its one contact
    assert check_structure(ring(square[:2]), spec).ok
    assert check_structure(ring([(0, 0), (2, 0)]), spec).violations == [
        "ring ('r',): broken cycle"]


def test_check_structure_words_every_kind_of_violation():
    # touches at an index gap in a chain and in a ring, interleaved in edge
    # order with a forbidden contact, then a broken chain and ring and an
    # allowed contact counted outside its range: worded as the id-list
    # oracle words them, in its order
    disks = [Disk(Fraction(0), Fraction(0), ("c", 0)), Disk(Fraction(9, 10), Fraction(0), ("c", 1)),
             Disk(Fraction(1), Fraction(0), ("c", 2)), Disk(Fraction(0), Fraction(9, 10), ("a",))]
    square = [(10, 0), (Fraction(109, 10), 0), (Fraction(109, 10), Fraction(9, 10)),
              (Fraction(109, 10), Fraction(1, 10))]
    disks += [Disk(Fraction(x), Fraction(y), ("r", k)) for k, (x, y) in enumerate(square)]
    disks += [Disk(Fraction(19, 10), Fraction(0), ("b",)),
              Disk(Fraction(30), Fraction(0), ("d", 0)), Disk(Fraction(40), Fraction(0), ("d", 1))]
    disks += [Disk(50 + Fraction(9, 10) * k, Fraction(0), ("s", k)) for k in range(3)]
    spec = StructureSpec(rings={("r",), ("s",)}, allowed_contacts={(("c",), ("b",)): (1, 1)})
    rep = oracles.assert_structure_check_matches_oracle(disk_instance(Fraction(1, 2), disks), spec)
    assert rep.contact_counts == {(("c",), ("b",)): 2}
    assert rep.violations == [
        "structure ('c',): disks 0 and 2 touch at index gap 2",
        "forbidden contact between ('c',) and ('a',)",
        "structure ('r',): disks 5 and 7 touch at index gap 2",
        "chain ('d',): only 0/1 consecutive contacts",
        "ring ('s',): broken cycle",
        "contact ('c',) ~ ('b',): 2 intersecting pairs, wanted [1, 1]",
    ]


def test_a_structure_that_extends_the_run_before_it_is_refused():
    # ("c", 2) continues the run ("c", 0), ("c", 1): the two structures
    # would be one run, so the check would read them as one chain
    b = gadgets._Disks(Fraction(1, 2))
    b.chain(("c",), [(0.0, 0.0), (0.9, 0.0)], 0)
    with pytest.raises(SynthesisError, match="tag run of its own"):
        b.single(("c", 2), (2 * b.M, 0))
    b = gadgets._Disks(Fraction(1, 2))
    b.chain(("c",), [(0.0, 0.0), (0.9, 0.0)], 0)
    with pytest.raises(SynthesisError, match="tag run of its own"):
        b.chain(("c",), [(2.0, 0.0), (2.9, 0.0)], 2)


# ---------------------------------------------------------------------------
# toy isolation instances
# ---------------------------------------------------------------------------

def test_toy_triangle_shape():
    red, emb, art = toy_triangle()
    inst = art.instance
    assert len(inst.disks) == 24  # 3 walls of 7 plus 3 anchors
    assert inst.meta["c_edge"] == 7
    assert inst.meta["vertex_disk_total"] == 3
    assert sorted(inst.points) == ["u", "v"]
    assert art.report.ok


def test_toy_triangle_wall_anchor_contacts():
    _, _, art = toy_triangle()
    counts = art.report.contact_counts
    anchor_pairs = [k for k in counts if k[0][0] == "wall" and k[1][0] == "anchor"]
    assert len(anchor_pairs) == 6  # each wall touches both endpoint anchors
    assert all(counts[k] == 1 for k in anchor_pairs)


def test_toy_triangle_marked_points_clear_and_in_faces():
    red, emb, art = toy_triangle()
    inst = art.instance
    r = inst.radius
    for pid, face in inst.meta["terminal_faces"].items():
        pt = inst.points[pid]
        assert locate_face(emb.graph, emb.coords, pt) == face
        assert all(dist_sq(d.center, pt) > (r + r / 4) ** 2 for d in inst.disks)


def test_toy_triangle_full_fence_separates():
    _, _, art = toy_triangle()
    inst = art.instance
    rep = verify_isolation(inst, range(len(inst.disks)))
    assert rep.ok


def test_lift_fence_complete_walls_only():
    _, _, art = toy_triangle()
    inst = art.instance
    full = lift_fence_to_edges(art.wall_ids, range(len(inst.disks)))
    assert full == [0, 1, 2] == lift_fence_by_tags(inst, range(len(inst.disks)))
    partial = list(range(len(inst.disks)))
    partial.remove(art.wall_ids[1][3])
    assert lift_fence_to_edges(art.wall_ids, partial) == [0, 2] == lift_fence_by_tags(inst, partial)


def test_place_face_points_lets_locate_face_bugs_surface(monkeypatch):
    def broken(*args):
        raise RuntimeError("bug inside locate_face")

    monkeypatch.setattr(gadgets, "locate_face", broken)
    with pytest.raises(RuntimeError, match="bug inside locate_face"):
        toy_triangle()


def test_place_face_points_skips_candidates_locate_face_refuses(monkeypatch):
    def refuse(*args):
        raise DrawingError("query point lies on the walk")

    monkeypatch.setattr(gadgets, "locate_face", refuse)
    with pytest.raises(SynthesisError, match="no clear marked point"):
        toy_triangle()


def test_build_rejects_mismatched_drawing():
    red = p2_reduction()
    other = grid_embed(PlanarEmbeddedGraph.from_edge_rotation(
        ["x", "y"], [("x", "y")], {"x": [0], "y": [0]}))
    with pytest.raises(SynthesisError):
        build_isolation_instance(red.instance, other, compute_params(other.grid_size, "toy"))


# ---------------------------------------------------------------------------
# sound isolation instances
# ---------------------------------------------------------------------------

def test_sound_triangle_builds_and_counts():
    red = p2_reduction()
    emb = grid_embed(red.instance.graph)
    art = build_sound(red.instance, emb)
    inst = art.instance
    assert len(inst.disks) == 3 * 882 + 3 * 76 == 2874
    assert inst.meta["vertex_disk_total"] == 228 < 882
    assert art.report.ok
    # every ring is a verified cycle of c_vertex disks
    for v, ids in art.vertex_ids.items():
        assert len(ids) == 76
    # wall-ring contacts stay in the 1..3 band
    for key, n in art.report.contact_counts.items():
        a, b = key
        if {"wall", "ring"} == {a[0], b[0]}:
            assert 1 <= n <= 3


def test_sound_triangle_separates_with_everything_kept():
    red = p2_reduction()
    emb = grid_embed(red.instance.graph)
    art = build_sound(red.instance, emb)
    rep = verify_isolation(art.instance, range(len(art.instance.disks)))
    assert rep.ok


def fraction_ring_is_cycle(centers, r):
    """The ring check as it ran on Fraction centres before the integer
    kernel: consecutive disks touch and no other pair does."""
    n = len(centers)
    if n < 3:
        return False
    four_r2 = 4 * r * r
    for i in range(n):
        for j in range(i + 1, n):
            gap = min(j - i, n - (j - i))
            touching = dist_sq(centers[i], centers[j]) <= four_r2
            if touching != (gap == 1):
                return False
    return True


def integer_ring_is_cycle(centers, r, unit):
    """The synthesizer's integer ring check on centres scaled by ``unit``."""
    ints = [(int(x * unit), int(y * unit)) for x, y in centers]
    assert all(Fraction(a, unit) == x and Fraction(b, unit) == y
               for (a, b), (x, y) in zip(ints, centers))
    return gadgets._ring_is_cycle(ints, unit, r)


def test_ring_check_agrees_with_fraction_oracle():
    red = p2_reduction()
    emb = grid_embed(red.instance.graph)
    art = build_sound(red.instance, emb)
    inst = art.instance
    r = inst.radius
    assert inst.params.s == 24 * r
    unit = 32 * Snapper(r).M   # room for the perturbations below
    for v, ids in art.vertex_ids.items():
        ring = [inst.disks[i].center for i in ids]
        assert fraction_ring_is_cycle(ring, r) and integer_ring_is_cycle(ring, r, unit)
        cx, cy = emb.coords[v]
        for k in (0, 17, len(ring) - 1):
            x, y = ring[k]
            # pushed out radially by s/16 = 3r/2: a gap on both sides
            out = Fraction(1, 16)
            pushed = ring[:k] + [(x + (x - cx) * out, y + (y - cy) * out)] + ring[k + 1:]
            # moved between its next two neighbours: touches a non-neighbour
            a, b = ring[(k + 1) % len(ring)], ring[(k + 2) % len(ring)]
            moved = ring[:k] + [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)] + ring[k + 1:]
            for bad in (pushed, moved):
                assert not fraction_ring_is_cycle(bad, r)
                assert not integer_ring_is_cycle(bad, r, unit)


@pytest.mark.parametrize("grid", [2, 3])
def test_ring_check_matches_the_pair_oracle_on_every_sound_ring_tried(grid):
    # every phase the synthesizer tries, at every grid point of the box; then
    # each ring with one disk pushed out (a gap on both sides) or moved
    # between its next two neighbours (a contact with a non-neighbour)
    p = compute_params(grid)
    snapper = Snapper(p.r)
    M, two_r = snapper.M, int(2 * p.r * snapper.M)
    closed = 0
    for x in range(grid + 1):
        for y in range(grid + 1):
            cx, cy = x * M, y * M
            for phase in (0.0, math.pi / p.c_vertex, math.pi / (2 * p.c_vertex)):
                ring = [snapper.snap_point(c) for c in
                        gadgets._ring_centers(x, y, float(p.s), p.c_vertex, phase)]
                closes = oracles.pair_ring_is_cycle(ring, two_r)
                assert gadgets._ring_is_cycle(ring, M, p.r) is closes
                closed += closes
                for k in (0, 17, len(ring) - 1):
                    (a, b), (c, d), (e, f) = (ring[k], ring[(k + 1) % len(ring)],
                                              ring[(k + 2) % len(ring)])
                    pushed = (a + (a - cx) // 16, b + (b - cy) // 16)
                    moved = ((c + e) // 2, (d + f) // 2)
                    for disk in (pushed, moved):
                        bad = ring[:k] + [disk] + ring[k + 1:]
                        assert not oracles.pair_ring_is_cycle(bad, two_r)
                        assert not gadgets._ring_is_cycle(bad, M, p.r)
    assert closed >= (grid + 1) ** 2  # a phase closes at every grid point


@pytest.mark.parametrize("nudge, closes", [(Fraction(0), False), (Fraction(1, 10**12), True)])
def test_ring_check_at_exact_tangency(nudge, closes):
    # a rhombus whose short diagonal is exactly one diameter: the only
    # non-neighbour contact is a tangency, which counts as touching
    r = Fraction(1, 640)
    a, b = r + nudge, 3 * r / 2
    ring = [(a, Fraction(0)), (Fraction(0), b), (-a, Fraction(0)), (Fraction(0), -b)]
    assert fraction_ring_is_cycle(ring, r) is closes
    assert integer_ring_is_cycle(ring, r, 10**12 * 1280) is closes


def k4_every_face_marked():
    g = PlanarEmbeddedGraph.from_edge_rotation(
        [0, 1, 2, 3],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        {0: [1, 2, 0], 1: [0, 4, 3], 2: [3, 5, 1], 3: [4, 2, 5]},
    )
    sub = SubdivisionInstance(graph=g, terminals={f"p{f}": f for f in range(g.face_count())})
    return sub, grid_embed(g)


def assert_round_trip_equal(inst):
    """The synthesizer's instance (centres over its snapping denominator)
    equals the one read back from its JSON (centres over the least common
    denominator), disk for disk, with the same intersection graph."""
    again = DiskInstance.from_dict(inst.to_dict())
    assert again == inst and again.disks == inst.disks
    assert again.to_dict() == inst.to_dict()
    r = inst.radius
    assert unit_disk_graph(again.centers, r).edges == unit_disk_graph(inst.centers, r).edges


def test_cached_integer_centers_match_round_trip():
    # every builder, both isolation modes
    red = p2_reduction()
    triangle = build_sound(red.instance, grid_embed(red.instance.graph))
    k4 = build_sound(*k4_every_face_marked())
    assert len(k4.instance.points) == 4
    _, _, toy = toy_triangle()
    mti, emb = _star_k13()
    for art in (triangle, k4, toy, build_acc_instance(*TRI), build_weighted_edge_instance(3),
                build_udmc_instance(mti, emb)):
        assert art.instance.centers.den == Snapper(art.instance.radius).M
        assert_round_trip_equal(art.instance)


def test_sound_refuses_oversized_budgets():
    red = p2_reduction()
    emb = grid_embed(red.instance.graph)
    big = compute_params(emb.grid_size, "sound")._replace(c_edge=10**6)
    with pytest.raises(SynthesisError):
        build_isolation_instance(red.instance, emb, big)


# ---------------------------------------------------------------------------
# acyclicity gadgets
# ---------------------------------------------------------------------------

TRI = (Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]),
       {"a": (0, 0), "b": (1, 0), "c": (0, 1)})


def test_acc_triangle_counts_and_topology():
    art = build_acc_instance(*TRI)
    assert len(art.instance.disks) == 21  # 3 hubs + chains of 5, 8, 5
    assert art.cycle_rank == 1
    reg = complement_regions(art.instance.centers, art.instance.radius)
    assert reg.union_components == 1
    assert reg.bounded_complement_regions == 1


FOREST = (Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
          {"a": (0, 0), "b": (1, 0), "c": (1, 1)})
TWO_TRIANGLES = (
    Graph(["a", "b", "c", "x", "y", "z"],
          [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x")]),
    {"a": (0, 0), "b": (1, 0), "c": (0, 1), "x": (4, 0), "y": (5, 0), "z": (4, 1)})


def test_acc_forest_has_no_holes():
    art = build_acc_instance(*FOREST)
    assert art.cycle_rank == 0
    reg = complement_regions(art.instance.centers, art.instance.radius)
    assert reg.bounded_complement_regions == 0


def test_acc_disconnected_components_counted():
    art = build_acc_instance(*TWO_TRIANGLES)
    assert art.cycle_rank == 2
    reg = complement_regions(art.instance.centers, art.instance.radius)
    assert reg.union_components == 2
    assert reg.bounded_complement_regions == 2


def test_acc_rejects_loops_and_short_edges():
    with pytest.raises(SynthesisError):
        build_acc_instance(Graph(["a"], [("a", "a")]), {"a": (0, 0)})
    with pytest.raises(SynthesisError):
        build_acc_instance(Graph(["a", "b"], [("a", "b")]), {"a": (0, 0), "b": (0, 0)})


def test_acc_lift():
    art = build_acc_instance(*TRI)
    assert lift_vertex_set_to_acc(art, ["b"]) == [art.hub_of_vertex["b"]]


# ---------------------------------------------------------------------------
# weighted lanes
# ---------------------------------------------------------------------------

def test_weighted_counts_and_terminals():
    for w, expect in ((1, 25), (2, 48), (3, 71)):
        art = build_weighted_edge_instance(w)
        assert len(art.instance.disks) == expect
        assert art.instance.meta["terminal_disks"] == [0, 1]
        assert len(art.lanes[0]) == w


def test_weighted_lanes_disjoint_mid_span():
    art = build_weighted_edge_instance(5)
    inst = art.instance
    udg = unit_disk_graph(inst.centers, inst.radius)
    lane_of = {}
    for j, ids in enumerate(art.lanes[0]):
        for k, i in enumerate(ids):
            lane_of[i] = (j, k, len(ids))
    for (i, j) in udg.edges:
        a, b = lane_of.get(i), lane_of.get(j)
        if a and b and a[0] != b[0]:
            # cross-lane contacts only near the fans (first or last fifth)
            for (lane, k, m) in (a, b):
                assert k < m / 5 or k > 4 * m / 5


def test_weighted_rejects_bad_args():
    with pytest.raises(SynthesisError):
        build_weighted_edge_instance(0)
    with pytest.raises(SynthesisError):
        build_weighted_edge_instance(16)  # fan would not fit


def test_perturb_copy_distinct():
    pts = {perturb_copy((1.0, 2.0), j, Fraction(1, 10)) for j in range(32)}
    assert len(pts) == 32


# ---------------------------------------------------------------------------
# whole-graph weighted cut synthesis
# ---------------------------------------------------------------------------

def _star_k13():
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")],
        {"c": [0, 1, 2], "a": [0], "b": [1], "d": [2]})
    mti = MultiterminalInstance(
        graph=g, terminals=("a", "b", "d"), weights={0: 1, 1: 1, 2: 1})
    emb = GridEmbedding(
        graph=g, coords={"c": (0, 0), "a": (1, 0), "b": (0, 1), "d": (1, 1)},
        grid_size=2)
    return mti, emb


def _triangle_mti():
    tri = PlanarEmbeddedGraph.from_edge_rotation(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")],
        {"a": [0, 2], "b": [1, 0], "c": [2, 1]})
    mti = MultiterminalInstance(
        graph=tri, terminals=("a", "b", "c"), weights={0: 1, 1: 1, 2: 1})
    return mti, grid_embed(tri)


def test_udmc_lone_bundle_is_unbreakable():
    # one isolated vertex: hub + 16 perturbed ring copies of 16 disks each
    # plus a two-disk spur per copy = 1 + 16 * 18 = 289 disks, and the hub
    # can only be severed by paying one edge per copy -- more than any
    # lane cut (max degree 3 * max weight 5) could ever cost.
    g = PlanarEmbeddedGraph.from_edge_rotation(["v"], [], {"v": []})
    mti = MultiterminalInstance(graph=g, terminals=["v"], weights={})
    emb = GridEmbedding(graph=g, coords={"v": (0, 0)}, grid_size=1)
    art = build_udmc_instance(mti, emb)
    assert len(art.instance.disks) == 1 + BUNDLE_COPIES * 18 == 289
    udg = unit_disk_graph(art.instance.centers, art.instance.radius)
    hub = art.hub_of_vertex["v"]
    assert len(udg.adj[hub]) == BUNDLE_COPIES
    import networkx as nx
    nxg = nx.Graph(udg.edges)
    ring_disk = art.sigma_ids["v"][5]
    assert nx.edge_connectivity(nxg, hub, ring_disk) == BUNDLE_COPIES
    assert BUNDLE_COPIES > 3 * 5


def test_udmc_single_edge_cut_equals_weight():
    from disklab.solvers import brute_min_multiterminal, multiterminal_cut_lower_bound
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v")], {"u": [0], "v": [0]})
    mti = MultiterminalInstance(graph=g, terminals=["u", "v"], weights={0: 3})
    emb = GridEmbedding(graph=g, coords={"u": (0, 0), "v": (1, 0)}, grid_size=2)
    art = build_udmc_instance(mti, emb)
    assert len(art.instance.disks) == 632
    assert art.instance.meta["weights"] == {"0": 3}
    src = brute_min_multiterminal(mti)
    assert src.optimum == 3
    lifted = lift_multiterminal_to_udmc(art, src.witness)
    assert len(lifted) == 3
    assert verify_multiterminal_cut(art.instance, lifted).ok
    # matching lower bound pins the disk-level optimum at exactly the weight
    assert multiterminal_cut_lower_bound(art.instance) == 3


def test_udmc_law_on_star_and_triangle():
    """Source optimum == lifted certificate size == certified lower bound."""
    from disklab.solvers import brute_min_multiterminal, multiterminal_cut_lower_bound
    cases = [(*_star_k13(), 1220), (*_triangle_mti(), 931)]
    for src_inst, drawing, disk_count in cases:
        art = build_udmc_instance(src_inst, drawing)
        assert len(art.instance.disks) == disk_count
        src = brute_min_multiterminal(src_inst)
        lifted = lift_multiterminal_to_udmc(art, src.witness)
        rep = verify_multiterminal_cut(art.instance, lifted)
        assert rep.ok, rep.lines
        assert len(lifted) == src.optimum
        assert multiterminal_cut_lower_bound(art.instance) == src.optimum
        assert_cuts_match_networkx(art.instance)


def test_udmc_lane_cut_edges_are_severable():
    # removing the designated mid-lane contact pairs of any edge subset is a
    # certificate candidate; for the single-edge instance the full set works.
    g = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v")], {"u": [0], "v": [0]})
    mti = MultiterminalInstance(graph=g, terminals=["u", "v"], weights={0: 2})
    emb = GridEmbedding(graph=g, coords={"u": (0, 0), "v": (1, 0)}, grid_size=2)
    art = build_udmc_instance(mti, emb)
    assert set(art.lanes) == set(art.cut_pairs) == {0}
    pairs = art.cut_pairs[0]
    assert len(pairs) == len(art.lanes[0]) == 2
    assert verify_multiterminal_cut(art.instance, pairs).ok


def cut_check_outcome(inst, pairs, budget):
    """The cut check's verdict, with each terminal's component as the
    labeller it runs finds it, or its refusal."""
    try:
        ok, lines = verify_multiterminal_cut(inst, pairs, budget)
    except Malformed as exc:
        return "refused", str(exc)
    comp = component_labels(unit_disk_graph(inst.centers, inst.radius).adj,
                            normalize_edge_list(pairs))
    return ok, {t: comp[t] for t in inst.meta["terminal_disks"]}, lines


def reference_cut_outcome(inst, pairs, budget):
    try:
        return reference_verify_multiterminal_cut(inst, pairs, budget)
    except Malformed as exc:
        return "refused", str(exc)


def test_udmc_cut_check_matches_union_find_oracle():
    # the star and the triangle with seeded weights and terminals, each
    # checked with its lifted optimum and with random subsets of its lane
    # cut pairs, plus a few other intersection edges and pairs naming ids
    # outside the disks
    from disklab.solvers import brute_min_multiterminal
    rng = random.Random(2101)
    outcomes = set()
    for shape in [_star_k13, _triangle_mti] * 2:
        base, drawing = shape()
        vertices = base.graph.vertices
        mti = MultiterminalInstance(
            graph=base.graph, terminals=rng.sample(vertices, rng.randint(2, len(vertices))),
            weights={e: rng.randint(1, 3) for e in range(len(base.graph.edges))})
        art = build_udmc_instance(mti, drawing)
        inst, n = art.instance, len(art.instance.disks)
        edges = unit_disk_graph(inst.centers, inst.radius).edges
        cut_pairs = [p for e in art.cut_pairs for p in art.cut_pairs[e]]
        trials = [lift_multiterminal_to_udmc(art, brute_min_multiterminal(mti).witness)]
        for k in range(11):
            pairs = rng.sample(cut_pairs, rng.randint(0, len(cut_pairs)))
            pairs += rng.sample(edges, rng.randint(0, 3))
            if k % 4 == 3:
                pairs.append(rng.choice([(-2, n - 1), (n - 1, n), (n, n + 1)]))
            trials.append(pairs)
        for pairs in trials:
            budget = rng.choice([None, len(pairs), len(pairs) - 1])
            got = cut_check_outcome(inst, pairs, budget)
            assert got == reference_cut_outcome(inst, pairs, budget)
            outcomes.add(got[0])
    assert outcomes == {True, False, "refused"}


def test_udmc_rejects_unsupported_shapes():
    ok_mti, ok_emb = _star_k13()

    heavy = MultiterminalInstance(
        graph=ok_mti.graph, terminals=ok_mti.terminals,
        weights={0: 6, 1: 1, 2: 1})
    with pytest.raises(SynthesisError, match="weight"):
        build_udmc_instance(heavy, ok_emb)

    k14 = PlanarEmbeddedGraph.from_edge_rotation(
        ["c", "a", "b", "d", "e"],
        [("c", "a"), ("c", "b"), ("c", "d"), ("c", "e")],
        {"c": [0, 1, 2, 3], "a": [0], "b": [1], "d": [2], "e": [3]})
    with pytest.raises(SynthesisError, match="degree"):
        build_udmc_instance(
            MultiterminalInstance(graph=k14, terminals=["a", "b"],
                                  weights={i: 1 for i in range(4)}),
            grid_embed(k14))

    loop = PlanarEmbeddedGraph.from_edge_rotation(
        ["v"], [("v", "v")], {"v": [0, 0]})
    with pytest.raises(SynthesisError, match="loop"):
        build_udmc_instance(
            MultiterminalInstance(graph=loop, terminals=["v"], weights={0: 1}),
            GridEmbedding(graph=loop, coords={"v": (0, 0)}, grid_size=1))

    doubled = PlanarEmbeddedGraph.from_edge_rotation(
        ["u", "v"], [("u", "v"), ("u", "v")], {"u": [0, 1], "v": [1, 0]})
    with pytest.raises(SynthesisError, match="parallel"):
        build_udmc_instance(
            MultiterminalInstance(graph=doubled, terminals=["u", "v"],
                                  weights={0: 1, 1: 1}),
            GridEmbedding(graph=doubled, coords={"u": (0, 0), "v": (1, 0)},
                          grid_size=2))

    # a larger radius leaves each lane too little of its edge
    with pytest.raises(SynthesisError, match="short"):
        build_udmc_instance(ok_mti, ok_emb, r=Fraction(1, 7))


def test_udmc_lift_rejects_unknown_edges():
    mti, emb = _star_k13()
    art = build_udmc_instance(mti, emb)
    with pytest.raises(SynthesisError, match="unknown edge"):
        lift_multiterminal_to_udmc(art, [7])


# ---------------------------------------------------------------------------
# byte pins: every synthesizer's output, as canonical digests
# ---------------------------------------------------------------------------

def _sound_triangle():
    red = p2_reduction()
    return build_sound(red.instance, grid_embed(red.instance.graph))


SYNTHESIS_PINS = {
    "toy triangle": (lambda: toy_triangle()[2],
                     "991b6faa538969b788f82eefb6eb14ffaa8c79ab72d55aabfbbf9a89c807b000"),
    "sound triangle": (_sound_triangle,
                       "3ba67869e8487233df1ec976eb5e58d0b7d24a89b0d83f7da929c4cdb2f05a6b"),
    "acc triangle": (lambda: build_acc_instance(*TRI),
                     "afea028245cc3565e0828c2302162581601b4c1a58475735048c96de6741f5c5"),
    "acc forest": (lambda: build_acc_instance(*FOREST),
                   "cb5a610ebde1ba4e1f56da7cedfc368758852945a408284b5c6ea592cfc9d28a"),
    "acc two triangles": (lambda: build_acc_instance(*TWO_TRIANGLES),
                          "92e826dae67eb9c0350374ad29d1252265b6eb0289a13ccb63b31dad36c82891"),
    "weighted 1": (lambda: build_weighted_edge_instance(1),
                   "a5909481069baab54e02649d88bdffc32a58aeb20f5954fa23a9423e65755fdf"),
    "weighted 2": (lambda: build_weighted_edge_instance(2),
                   "c8f1b83be67da002fb158a222650f1a563d0e5d6ab134503e867d5b525f71ff8"),
    "weighted 3": (lambda: build_weighted_edge_instance(3),
                   "e21a962a4644d4ef3ed4f7dd8b54f6a0f2c8ccf17f0a3edfc5815d5608eb1da0"),
    "weighted 4": (lambda: build_weighted_edge_instance(4),
                   "c33f84f220c1dc1e724365b73e927ab3c6cbe2cdc41b68d1ae20d3ead350a9ae"),
    "weighted 5": (lambda: build_weighted_edge_instance(5),
                   "3c5eff2503655184ee9b8dfe5ad9908be617fc1e04bcfc93a27870fcb0bfc33a"),
    "udmc star": (lambda: build_udmc_instance(*_star_k13()),
                  "884defa0661e04b458de5ff25c8ddbb781826f4d8c76d1c9de7cc05c680951f8"),
    "udmc triangle": (lambda: build_udmc_instance(*_triangle_mti()),
                      "0f07404c3ec0d135bb12def64a594f2517d5ad124f5f363d619e4457b6ba9846"),
}


@pytest.mark.parametrize("case", list(SYNTHESIS_PINS))
def test_synthesized_instances_are_pinned(case):
    # layout floats, snapping, disk order and tags all reach the digest
    build, digest = SYNTHESIS_PINS[case]
    inst = build().instance
    d = inst.to_dict()
    assert canonical_digest(d) == digest
    # reduce writes and records what its encoder makes, not to_dict's encoding
    assert instance_json(inst) == (json.dumps(d, sort_keys=True, indent=2) + "\n", digest)


# ---------------------------------------------------------------------------
# one tag run per structure, and the run-based check against the id-list one
# ---------------------------------------------------------------------------

def run_table(inst):
    return [(tag, first, list(range(start, stop))) for start, stop, tag, first in inst.tags.spans()]


@pytest.mark.parametrize("shape", [TRI, FOREST, TWO_TRIANGLES])
def test_acc_tags_are_one_run_per_hub_and_chain(shape):
    art = build_acc_instance(*shape)
    assert run_table(art.instance) == [
        (("hub", str(v)), None, [i]) for v, i in art.hub_of_vertex.items()] + [
        (("conn", e), 0, ids) for e, ids in art.chain_ids.items()]


@pytest.mark.parametrize("shape", [_star_k13, _triangle_mti])
def test_udmc_tags_are_one_run_per_hub_ring_chain_and_lane(shape):
    art = build_udmc_instance(*shape())
    want = []
    for v, hub in art.hub_of_vertex.items():
        want.append((("hub", str(v)), None, [hub]))
        sigma = art.sigma_ids[v]
        m = len(sigma) // BUNDLE_COPIES
        for j in range(BUNDLE_COPIES):
            ring = sigma[j * m:(j + 1) * m]
            # the two-disk connector chain follows its ring copy, numbered from 1
            want += [(("sigma", str(v), j), 0, ring),
                     (("gamma", str(v), j), 1, [ring[-1] + 1, ring[-1] + 2])]
    want += [(("lane", e, i), 0, ids) for e, lanes in art.lanes.items()
             for i, ids in enumerate(lanes)]
    assert run_table(art.instance) == want


@pytest.fixture
def checked(monkeypatch):
    """Every (instance, spec) the builders hand to ``check_structure``."""
    seen = []
    real = gadgets.check_structure

    def record(inst, spec):
        seen.append((inst, spec))
        return real(inst, spec)
    monkeypatch.setattr(gadgets, "check_structure", record)
    return seen


def moved(inst, i, to):
    """A copy of ``inst`` with disk ``i`` centred at the numerators ``to``."""
    xs, ys, den = inst.centers
    xs, ys = list(xs), list(ys)
    xs[i], ys[i] = to
    return DiskInstance(inst.radius, IntCenters(tuple(xs), tuple(ys), den), inst.tags,
                        meta=inst.meta)


def one_disk_moves(inst, spec):
    """(copy, violation it must show): the middle disk of the longest chain
    moved far off, onto a structure it may not touch and onto the disk two
    places on in its chain, and the first disk of the first ring moved far
    off."""
    xs, ys, den = inst.centers
    far = (max(xs) + 10 * den, max(ys) + 10 * den)
    groups = oracles.structures_by_name(inst)
    name, ids = max(((t, ids) for t, ids in groups.items() if t not in spec.rings),
                    key=lambda item: len(item[1]))
    mid = ids[len(ids) // 2]
    out = [(moved(inst, mid, far), "consecutive contacts")]
    stranger = next(t for t in groups if t != name and (name, t) not in spec.allowed_contacts
                    and (t, name) not in spec.allowed_contacts)
    there = groups[stranger][0]
    out.append((moved(inst, mid, (xs[there], ys[there])), "forbidden contact"))
    if len(ids) // 2 + 2 < len(ids):
        on = ids[len(ids) // 2 + 2]
        out.append((moved(inst, mid, (xs[on], ys[on])), "touch at index gap 2"))
    ring = next((ids for t, ids in groups.items() if t in spec.rings), None)
    if ring:
        out.append((moved(inst, ring[0], far), "broken cycle"))
    return out


def test_check_structure_matches_the_id_list_oracle_on_seeded_builds(checked):
    for seed in range(6):
        for emb in seeded_planar_graphs(seed, 4, max_vertices=5):
            g = emb.graph
            base = compute_params(emb.grid_size, "toy")
            sub = SubdivisionInstance(graph=g, terminals={f"p{f}": f for f in range(g.face_count())})
            for build in (
                    lambda: build_isolation_instance(
                        sub, emb, base._replace(c_edge=toy_edge_budget(emb, base))),
                    lambda: build_acc_instance(g, emb.coords)):
                try:
                    build()
                except SynthesisError:
                    pass
        for mti in seeded_multiterminal_instances(seed, 4):
            try:
                build_udmc_instance(mti, grid_embed(mti.graph))
            except SynthesisError:
                pass
    outcomes = Counter()
    for inst, spec in checked:
        report = oracles.assert_structure_check_matches_oracle(inst, spec)
        outcomes[inst.meta["kind"], report.ok] += 1
        if report.ok:
            for copy, violation in one_disk_moves(inst, spec):
                bad = oracles.assert_structure_check_matches_oracle(copy, spec)
                assert any(violation in v for v in bad.violations), violation
    # refused builds too: conn chains and lanes that touch where they must not
    assert outcomes == {("isolation", True): 14, ("acc", True): 14, ("acc", False): 10,
                        ("udmc", True): 10, ("udmc", False): 5}
