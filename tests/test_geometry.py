"""Exact-arithmetic core: certified bounds, parameter schedule, grid oracles,
disk and segment predicates."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from disklab import geometry as geo
from disklab.arrangements import CenterIndex, unit_disk_graph

import oracles
from instances import int_centers


# ---------------------------------------------------------------------------
# certified square roots and pi
# ---------------------------------------------------------------------------

@given(
    num=st.integers(min_value=0, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**6),
    k=st.integers(min_value=4, max_value=40),
)
def test_sqrt_bounds_bracket(num, den, k):
    x = F(num, den)
    err = F(1, 2**k)
    lo, hi = geo.sqrt_bounds(x, err)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= err
    assert lo >= 0


def test_sqrt2_upper_is_tight_upper_bound():
    ub = geo.sqrt2_upper(F(1), F(1, 10**12))
    assert ub * ub >= 2
    assert (ub - F(1, 10**12)) ** 2 < 2


def test_pi_bounds_bracket_known_digits():
    lo, hi = geo.pi_bounds()
    assert F(314159265358979, 10**14) < lo < hi < F(314159265358980, 10**14)


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=9))
def test_ceil_floor_consistency(num, den):
    x = F(num, den)
    c, f = geo.ceil_frac(x), geo.floor_frac(x)
    assert f <= x <= c
    assert c - f == (0 if x.denominator == 1 else 1)


def test_rational_str_round_trip():
    for x in (F(0), F(3), F(-7, 2), F(1, 640), F(22, 7)):
        assert geo.rational_from_str(geo.rational_to_str(x)) == x
    with pytest.raises(ValueError):
        geo.rational_from_str("1/0")


# ---------------------------------------------------------------------------
# parameter schedule
# ---------------------------------------------------------------------------

def test_sound_params_at_n2():
    p = geo.compute_params(2)
    assert p.r == F(1, 640)
    assert p.h == F(1, 48)
    assert p.a == F(1, 4)
    assert p.s == F(3, 80)          # clearance surrogate 6*r*n^2
    assert p.spacing == F(9, 5) * p.r
    assert p.c_edge == 882
    assert p.c_vertex == 76
    assert p.mode == "sound"


def test_sound_schedule_formulas():
    for n in (2, 3, 5, 8):
        p = geo.compute_params(n)
        assert p.r == F(1, 80 * n**3)
        assert p.h == F(1, 12 * n**2)
        assert p.s == 6 * p.r * n * n


def test_clearance_surrogate_dominates_exact_value():
    # the exact clearance is r*(sqrt(36 n^4 + 1) - 1); the surrogate 6 r n^2
    # must never fall below it: (6 n^2 + 1)^2 >= 36 n^4 + 1.
    for n in range(2, 40):
        assert (6 * n * n + 1) ** 2 >= 36 * n**4 + 1


def test_vertex_disk_count_certified():
    # ceil(pi * s / r) with s/r = 6 n^2: n=2 -> ceil(24 pi) = 76
    assert geo.count_vertex_disks(F(1, 640), F(3, 80)) == 76
    assert geo.count_vertex_disks(F(1, 10), F(1, 4)) == 8  # ceil(2.5 pi)


def test_edge_disk_count_uses_certified_sqrt2():
    c, bound = geo.count_edge_disks(2, F(1, 640), F(3, 80))
    assert c == 882
    assert bound * bound >= 8  # upper bound on sqrt(2)*2


def test_params_round_trip_and_overrides():
    p = geo.compute_params(3)
    q = geo.ParamSet.from_dict(p.as_dict())
    assert q == p
    o = geo.compute_params(2, overrides={"r": F(1, 100)})
    assert o.r == F(1, 100)
    assert o.s == 6 * F(1, 100) * 4  # dependent values recomputed
    with pytest.raises(ValueError):
        geo.compute_params(1)
    with pytest.raises(ValueError, match="unknown parameter overrides"):
        geo.compute_params(2, "toy", {"c_edge": F(7)})


@pytest.mark.parametrize("mode", ["sound", "toy"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_param_sets_are_frozen_values(n, mode):
    # equal to their round trip, hashed as the tuple of their fields, and
    # refusing assignment
    p = geo.compute_params(n, mode)
    assert geo.ParamSet.from_dict(p.as_dict()) == p
    assert hash(p) == hash((p.n, p.r, p.s, p.a, p.h, p.spacing, p.c_edge, p.c_vertex, p.mode))
    with pytest.raises(AttributeError):
        p.c_edge = 1
    assert p._replace(c_edge=7).c_edge == 7 and p.c_edge != 7


def test_geometry_values_keep_their_reprs():
    assert repr(geo.compute_params(2)) == (
        "ParamSet(n=2, r=Fraction(1, 640), s=Fraction(3, 80), a=Fraction(1, 4), "
        "h=Fraction(1, 48), spacing=Fraction(9, 3200), c_edge=882, c_vertex=76, mode='sound')")
    assert repr(geo.ParamSet(2, F(1), F(1), F(1), F(1), F(1), 1, 1)).endswith(
        "c_edge=1, c_vertex=1, mode='sound')")
    assert repr(geo.Disk(F(1, 2), F(3), ("a", 1))) == \
        "Disk(x=Fraction(1, 2), y=Fraction(3, 1), tag=('a', 1))"
    assert geo.Disk(F(1), F(2)) == geo.Disk(F(1), F(2), ())
    assert hash(geo.Disk(F(1), F(2))) == hash((F(1), F(2), ()))
    with pytest.raises(AttributeError):
        geo.Disk(F(1), F(2)).x = F(0)
    assert repr(geo.min_grid_angle_exceeds(2)) == (
        "AngleOracleResult(ok=True, n=2, min_tan=Fraction(1, 3), "
        "threshold_tan=Fraction(48, 575), witness=((0, 0), (2, 1), (1, 1)))")
    assert repr(geo.check_constraints(geo.compute_params(2))).startswith(
        "ConstraintReport(entries=[('C1: 2(r+s) < 1', True, '2(r+s) = 5/64'), ")


def test_toy_params():
    p = geo.compute_params(2, mode="toy")
    assert (p.r, p.s, p.a, p.h) == (F(1, 10), F(1, 4), F(1, 4), F(1, 2))
    assert p.c_edge == 12
    assert p.c_vertex == 8


# ---------------------------------------------------------------------------
# constraint report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 65))
def test_sound_constraints_hold(n):
    rep = geo.check_constraints(geo.compute_params(n))
    assert rep.ok, rep.failing()
    assert len(rep.entries) == 5


def test_toy_constraints_fail_with_named_entries():
    rep = geo.check_constraints(geo.compute_params(2, mode="toy"))
    assert not rep.ok
    failing = "\n".join(rep.failing())
    for tag in ("C2", "C3", "C4", "C5"):
        assert tag in failing
    assert "C1" not in failing


def test_constraint_lines_are_printable():
    rep = geo.check_constraints(geo.compute_params(2))
    lines = rep.lines()
    assert len(lines) == 5
    assert all(line.startswith(("ok", "FAIL")) for line in lines)


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_min_line_point_distance_closed_form(n):
    d2, witness = geo.min_grid_line_point_distance_sq(n)
    assert d2 == F(1, 2 * n * n - 2 * n + 1)
    p, q, t = witness
    # witness is reproducible: t off the line through p, q at that distance
    dx, dy = q[0] - p[0], q[1] - p[1]
    cross = dx * (t[1] - p[1]) - dy * (t[0] - p[0])
    assert cross != 0
    assert F(cross * cross, dx * dx + dy * dy) == d2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_grid_angle_oracle(n):
    res = geo.min_grid_angle_exceeds(n)
    assert res.ok
    t = F(1, 6 * n * n)
    assert res.threshold_tan == 2 * t / (1 - t * t)
    assert res.min_tan > res.threshold_tan


def test_min_grid_angle_witness_at_n2():
    res = geo.min_grid_angle_exceeds(2)
    assert res.min_tan == F(1, 3)
    apex, u, v = res.witness
    du = (u[0] - apex[0], u[1] - apex[1])
    dv = (v[0] - apex[0], v[1] - apex[1])
    cross = du[0] * dv[1] - du[1] * dv[0]
    dot = du[0] * dv[0] + du[1] * dv[1]
    assert dot > 0 and F(abs(cross), dot) == F(1, 3)


# ---------------------------------------------------------------------------
# disk predicates
# ---------------------------------------------------------------------------

def test_disks_intersect_closed_tangency():
    r = F(1, 4)
    origin = (F(0), F(0))
    for other, meets in (((2 * r, F(0)), True),                   # tangent
                         ((2 * r + F(1, 10**9), F(0)), False),
                         (origin, True)):
        udg = unit_disk_graph(int_centers([origin, other], r), r)
        assert (udg.edges == [(0, 1)]) == meets


@given(
    st.fractions(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4),
    st.fractions(min_value=F(1, 8), max_value=2),
)
def test_disk_contains_center(x, y, r):
    # disks are closed: the center and the boundary are covered, no farther
    c = (x, y)
    index = CenterIndex(int_centers([c], r), r)
    assert index.within(c, r) == [0]
    assert index.within((x + r, y), r) == [0]
    assert index.within((x + r + F(1, 1000), y), r) == []


def test_triple_intersection_cases():
    # r = 1, so the diameter is 2
    # two tangent disks meet only at (1, 0); third centered at (1, 2) misses it
    assert not geo.triple_intersection_nonempty((0, 0), (2, 0), (1, 2), 2)
    # ... but a third at distance exactly r reaches the tangency point
    assert geo.triple_intersection_nonempty((0, 0), (2, 0), (1, 1), 2)
    # (0, 0), (1, 0), (1/2, 1/2) with r = 1, in halves
    assert geo.triple_intersection_nonempty((0, 0), (2, 0), (1, 1), 4)
    assert geo.triple_intersection_nonempty((0, 0), (0, 0), (1, 0), 2)
    # pairwise-intersecting trio whose common region is empty: the first two
    # overlap along x in [1/2, 3/2] x {0-ish}, the third at (1, 17/10) sits
    # too high (in tenths, r = 10)
    assert 10**2 + 17**2 <= 20**2
    assert not geo.triple_intersection_nonempty((0, 0), (20, 0), (10, 17), 20)


def test_triple_intersection_requires_pairwise():
    assert not geo.triple_intersection_nonempty((0, 0), (5, 0), (2, 1), 2)


@given(
    st.fractions(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2),
)
def test_triple_intersection_common_point_implies_true(ax, ay, bx, by):
    # all three disks contain the origin by construction
    r = F(3)
    sc = int_centers([(ax, ay), (bx, by), (F(1), F(1))], r)
    assert geo.triple_intersection_nonempty(*zip(sc.xs, sc.ys), int(2 * r * sc.den))


LATTICE = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@given(LATTICE, LATTICE, LATTICE, st.integers(1, 9))
@settings(max_examples=400)
@example((0, 0), (2, 0), (1, 1), 2)         # tangent pair, third through its point
@example((0, 0), (2, 0), (1, 2), 2)         # tangent pair, third misses it
@example((0, 0), (6, 8), (3, -1), 10)       # likewise on a 3-4-5 diagonal
@example((0, 0), (6, 0), (3, 9), 10)        # lens corner (3, 4) exactly on the third
@example((0, 0), (6, 0), (4, 9), 10)
@example((1, 1), (1, 1), (3, 1), 2)         # coincident, the pair tangent
@example((1, 1), (1, 1), (4, 1), 2)         # coincident, the pair apart
@example((0, 0), (0, 0), (0, 0), 1)
@example((0, 0), (5, 0), (2, 1), 2)         # one pair apart
def test_triple_intersection_matches_fraction_oracle(a, b, c, two_r):
    want = oracles.triple_intersection_nonempty(
        *[(F(x), F(y)) for x, y in (a, b, c)], F(two_r, 2))
    assert geo.triple_intersection_nonempty(a, b, c, two_r) == want


# ---------------------------------------------------------------------------
# segment predicates
# ---------------------------------------------------------------------------

def test_orient_sign():
    assert geo.orient((F(0), F(0)), (F(1), F(0)), (F(0), F(1))) > 0
    assert geo.orient((F(0), F(0)), (F(1), F(0)), (F(0), F(-1))) < 0
    assert geo.orient((F(0), F(0)), (F(1), F(1)), (F(2), F(2))) == 0


def test_segments_cross_properly():
    a, b = (F(0), F(0)), (F(2), F(2))
    c, d = (F(0), F(2)), (F(2), F(0))
    assert geo.segments_cross_properly(a, b, c, d)
    # sharing an endpoint is not a proper crossing
    assert not geo.segments_cross_properly(a, b, b, (F(3), F(0)))
    # touching at an interior point of one segment only
    assert not geo.segments_cross_properly(a, b, (F(1), F(1)), (F(2), F(0)))


def test_point_on_segment():
    a, b = (F(0), F(0)), (F(4), F(2))
    assert geo.point_on_segment((F(2), F(1)), a, b)
    assert geo.point_on_segment(a, a, b)
    assert not geo.point_on_segment((F(2), F(2)), a, b)
    assert not geo.point_on_segment((F(6), F(3)), a, b)


def test_ray_crossing_signs_and_half_open_rule():
    p = (F(0), F(0))
    up, down = ((F(1), F(-1)), (F(1), F(1))), ((F(1), F(1)), (F(1), F(-1)))
    assert geo.ray_crossing(*up, p) == 1
    assert geo.ray_crossing(*down, p) == -1
    # left of p: the ray points away from the segment
    assert geo.ray_crossing((F(-1), F(-1)), (F(-1), F(1)), p) == 0
    # an endpoint on the ray's line counts as below it
    assert geo.ray_crossing((F(1), F(0)), (F(1), F(1)), p) == 1
    assert geo.ray_crossing((F(1), F(-1)), (F(1), F(0)), p) == 0
    # a horizontal segment on the ray never crosses it
    assert geo.ray_crossing((F(1), F(0)), (F(3), F(0)), p) == 0
    assert geo.ray_crossing((F(3), F(0)), (F(1), F(0)), p) == 0


quarter = st.integers(min_value=-8, max_value=8).map(lambda k: F(k, 4))


@given(quarter, quarter, quarter, quarter, quarter, quarter, quarter, quarter)
@settings(max_examples=200)
def test_ray_crossings_around_a_triangle_decide_inside(ax, ay, bx, by, cx, cy, px, py):
    a, b, c, p = (ax, ay), (bx, by), (cx, cy), (px, py)
    sides = ((a, b), (b, c), (c, a))
    assume(not any(geo.point_on_segment(p, u, v) for u, v in sides))
    signs = {geo.orient(u, v, p) for u, v in sides}
    inside = len(signs) == 1 and 0 not in signs
    assert (abs(sum(geo.ray_crossing(u, v, p) for u, v in sides)) == 1) == inside


def segment_intersection_point(a, b, c, d):
    """Intersection point of the supporting lines (caller ensures non-parallel)."""
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    den = rx * sy - ry * sx
    if den == 0:
        raise ValueError("parallel segments have no unique intersection point")
    t = ((c[0] - a[0]) * sy - (c[1] - a[1]) * sx) / den
    return (a[0] + t * rx, a[1] + t * ry)


@given(
    st.fractions(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3),
)
@settings(max_examples=60)
def test_proper_crossing_has_interior_point(ax, ay, bx, by, cx, cy, dx, dy):
    a, b, c, d = (ax, ay), (bx, by), (cx, cy), (dx, dy)
    if geo.segments_cross_properly(a, b, c, d):
        pt = segment_intersection_point(a, b, c, d)
        assert pt is not None
        assert geo.point_on_segment(pt, a, b)
        assert geo.point_on_segment(pt, c, d)
        assert pt not in (a, b, c, d)
