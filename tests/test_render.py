"""SVG output: structure, determinism, golden files."""

from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from disklab.arrangements import DiskInstance
from disklab.geometry import Disk
from disklab.graphs import PlanarEmbeddedGraph
from disklab.gridembed import GridEmbedding, grid_embed
from disklab.render import (
    MAX_GUIDE_LINES, _PALETTE, _Frame, _fmt, _grid_lines, _guide_pitch, _open_svg,
    svg_for_embedding, svg_for_instance,
)

from instances import build_weighted_edge_instance, disk_instance
from test_gadgets import build_sound, k4_every_face_marked, p2_reduction

GOLDEN = Path(__file__).parent / "golden"


def ring_instance(meta=None):
    return disk_instance(
        radius=Fraction(3, 2),
        disks=[Disk(Fraction(2), Fraction(0), ("ring", 0)),
               Disk(Fraction(0), Fraction(2), ("ring", 0)),
               Disk(Fraction(-2), Fraction(0), ("ring", 0)),
               Disk(Fraction(0), Fraction(-2), ("ring", 0))],
        points={"in": (Fraction(0), Fraction(0)), "out": (Fraction(5), Fraction(5))},
        meta=meta,
    )


def test_empty_instance_is_valid_svg():
    svg = svg_for_instance(disk_instance(radius=Fraction(1), disks=[]))
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert "<circle" not in svg


def test_ring_golden():
    assert svg_for_instance(ring_instance()) == (GOLDEN / "ring4.svg").read_text()


def test_weight5_golden_has_five_lanes():
    svg = svg_for_instance(build_weighted_edge_instance(5).instance)
    assert svg == (GOLDEN / "weight5.svg").read_text()
    # one fill color per lane plus one for the two terminal disks
    fills = {part.split('"')[0] for part in svg.split('fill="')[1:] if part[0] == "#"}
    assert len(fills) >= 6


def test_embedding_golden():
    tri = PlanarEmbeddedGraph.from_edge_rotation(
        [0, 1, 2], [(0, 1), (1, 2), (2, 0)], {0: [0, 2], 1: [1, 0], 2: [2, 1]})
    assert svg_for_embedding(grid_embed(tri)) == (
        GOLDEN / "triangle_embedding.svg").read_text()


@pytest.mark.parametrize("span,pitch", [(MAX_GUIDE_LINES - 1, 1), (MAX_GUIDE_LINES, 2)])
def test_embedding_guides_stay_within_the_line_bound(span, pitch):
    # the widest span drawn with unit guides, then the narrowest whose
    # guides are two apart
    edge = PlanarEmbeddedGraph.from_edge_rotation(["a", "b"], [("a", "b")], {"a": [0], "b": [0]})
    svg = svg_for_embedding(GridEmbedding(edge, {"a": (0, 0), "b": (span, span)}, span))
    want: List[str] = []
    _grid_lines(_Frame(0, 0, span, span), 0, 0, span, span, pitch, want)
    assert "\n".join(want) in svg
    assert len(want) - 2 == 2 * (span // pitch + 1) <= 2 * MAX_GUIDE_LINES


def test_rebuild_is_byte_identical():
    a = svg_for_instance(build_weighted_edge_instance(3).instance, guides=True)
    b = svg_for_instance(build_weighted_edge_instance(3).instance, guides=True)
    assert a == b


def test_terminal_disks_get_heavy_outline():
    inst = ring_instance(meta={"terminal_disks": [0, 2]})
    svg = svg_for_instance(inst)
    assert svg.count('stroke-width="2.4"') == 2


def test_circle_count_matches_disks():
    svg = svg_for_instance(ring_instance())
    assert svg.count("<circle") == 4
    assert svg.count("<line") == 4  # two crosses


def test_guides_draw_grid_lines():
    bare = svg_for_instance(ring_instance())
    gridded = svg_for_instance(ring_instance(), guides=True)
    assert gridded.count("<line") > bare.count("<line")


@pytest.mark.parametrize("x", [10**9, 10**12])
def test_guides_far_from_the_origin(x):
    # with r = 10**-12 the guide pitch is 2**-40, and far from the origin
    # many multiples of it round to one float: each distinct position is
    # drawn once (3 rows, 1 column), not once per multiple
    inst = disk_instance(Fraction(1, 10**12), [Disk(Fraction(x), Fraction(0))])
    svg = svg_for_instance(inst, guides=True)
    assert svg.count("<line") <= 5


def test_y_axis_points_up():
    inst = disk_instance(
        radius=Fraction(1),
        disks=[Disk(Fraction(0), Fraction(0)), Disk(Fraction(0), Fraction(5))],
    )
    svg = svg_for_instance(inst)
    rows = [line for line in svg.splitlines() if line.startswith("<circle")]
    cy = [float(line.split('cy="')[1].split('"')[0]) for line in rows]
    assert cy[1] < cy[0]  # larger scene y renders higher (smaller svg y)


def test_point_labels_present():
    svg = svg_for_instance(ring_instance())
    assert ">in</text>" in svg and ">out</text>" in svg


def fraction_svg_for_instance(instance: DiskInstance, guides: bool = False) -> str:
    """The renderer as it read ``Fraction`` disks, kept as the oracle for
    the one reading integer centres and tags."""
    r = float(instance.radius)
    xs: List[float] = []
    ys: List[float] = []
    for d in instance.disks:
        xs += [float(d.x) - r, float(d.x) + r]
        ys += [float(d.y) - r, float(d.y) + r]
    for (px, py) in instance.points.values():
        xs.append(float(px))
        ys.append(float(py))
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    frame = _Frame(min(xs), min(ys), max(xs), max(ys))
    out: List[str] = []
    _open_svg(frame, out)
    if guides and instance.disks:
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        _grid_lines(frame, min(xs), min(ys), max(xs), max(ys),
                    _guide_pitch(span), out)

    color_of: Dict[Tuple, str] = {}
    terminal = set(int(t) for t in instance.meta.get("terminal_disks", []))
    out.append('<g stroke="#333333" stroke-width="0.6" fill-opacity="0.5">')
    for i, d in enumerate(instance.disks):
        key = tuple(str(t) for t in d.tag[:-1]) if len(d.tag) >= 2 else ("disk",)
        if key not in color_of:
            color_of[key] = _PALETTE[len(color_of) % len(_PALETTE)]
        cx, cy = frame.pt(float(d.x), float(d.y))
        extra = ' stroke="#000000" stroke-width="2.4"' if i in terminal else ""
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r * frame.k)}" '
            f'fill="{color_of[key]}"{extra}/>'
        )
    out.append("</g>")

    if instance.points:
        out.append('<g stroke="#cc0000" stroke-width="2">')
        for label in sorted(instance.points):
            px, py = frame.pt(float(instance.points[label][0]),
                              float(instance.points[label][1]))
            m = 7.0
            out.append(f'<line x1="{_fmt(px - m)}" y1="{_fmt(py - m)}" x2="{_fmt(px + m)}" y2="{_fmt(py + m)}"/>')
            out.append(f'<line x1="{_fmt(px - m)}" y1="{_fmt(py + m)}" x2="{_fmt(px + m)}" y2="{_fmt(py - m)}"/>')
            out.append(
                f'<text x="{_fmt(px)}" y="{_fmt(py - 11)}" font-size="16" '
                f'fill="#cc0000" stroke="none" text-anchor="middle">{label}</text>'
            )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def assert_renders_like_fraction_oracle(inst):
    parsed = DiskInstance.from_dict(inst.to_dict())
    for guides in (False, True):
        want = fraction_svg_for_instance(inst, guides=guides)
        assert svg_for_instance(inst, guides=guides) == want
        assert svg_for_instance(parsed, guides=guides) == want


def test_goldens_render_like_fraction_oracle():
    ring = ring_instance()
    assert fraction_svg_for_instance(ring) == (GOLDEN / "ring4.svg").read_text()
    weight5 = build_weighted_edge_instance(5).instance
    assert fraction_svg_for_instance(weight5) == (GOLDEN / "weight5.svg").read_text()
    for inst in (ring, weight5, disk_instance(radius=Fraction(1), disks=[])):
        assert_renders_like_fraction_oracle(inst)


@pytest.mark.parametrize("synthesize", [
    lambda: build_sound(p2_reduction().instance, grid_embed(p2_reduction().instance.graph)),
    lambda: build_sound(*k4_every_face_marked()),
], ids=["sound-triangle", "sound-k4"])
def test_sound_instances_render_like_fraction_oracle(synthesize):
    assert_renders_like_fraction_oracle(synthesize().instance)


# within 50 of the origin; test_guides_far_from_the_origin covers guides
# where multiples of the pitch round together
coordinates = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=64),
    st.integers(1, 10**40).flatmap(
        lambda den: st.builds(Fraction, st.integers(-50 * den, 50 * den), st.just(den))),
    st.builds(Fraction, st.integers(-50, 50)),
)
tags = st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(["wall", "ring", "v1", ""])),
                max_size=3).map(tuple)


@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**12),
    st.lists(st.tuples(coordinates, coordinates, tags), max_size=8),
    st.lists(st.tuples(coordinates, coordinates), max_size=3, unique=True),
    st.lists(st.integers(0, 7), max_size=3, unique=True),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_instances_render_like_fraction_oracle(r, disks, points, terminals, tangent):
    disks = [Disk(x, y, tag) for x, y, tag in disks]
    if tangent and disks:
        # an exact tangency and a shared row with the first disk
        d = disks[0]
        disks += [Disk(d.x + 2 * r, d.y, ("tangent", 0)), Disk(d.x - 4 * r, d.y, ("tangent", 1))]
    inst = disk_instance(
        radius=r, disks=disks,
        points={f"p{k}": pt for k, pt in enumerate(points)},
        meta={"terminal_disks": [t for t in terminals if t < len(disks)]},
    )
    assert_renders_like_fraction_oracle(inst)
