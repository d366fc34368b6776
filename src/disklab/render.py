"""Deterministic SVG pictures of disk instances and grid drawings.

Hand-rolled string assembly: identical input objects yield byte-identical
documents, which the test suite pins with golden files.  Disks are colored
by the structure they belong to (first two components of their tag), marked
points are drawn as crosses, terminal disks get a heavy outline.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .arrangements import DiskInstance
from .gridembed import GridEmbedding

_PALETTE = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
    "#cc6644", "#44aa99", "#884488", "#99bb55", "#6699cc", "#777788",
]

_CANVAS = 1000.0


def _fmts(values: Iterable[float]) -> List[str]:
    """Each value to three decimals, trailing zeros and point dropped, and
    no negative zero."""
    return [t if (t := s.rstrip("0").rstrip(".")) != "-0" else "0"
            for s in map(format, values, repeat(".3f"))]


def _fmt(x: float) -> str:
    return _fmts((x,))[0]


class _Frame:
    """Affine map from scene coordinates to a y-flipped SVG canvas."""

    def __init__(self, x0: float, y0: float, x1: float, y1: float):
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x0 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y0 + 0.5
        pad = 0.05 * max(x1 - x0, y1 - y0)
        x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
        self.k = _CANVAS / max(x1 - x0, y1 - y0)
        self.x0, self.y1 = x0, y1
        self.width = (x1 - x0) * self.k
        self.height = (y1 - y0) * self.k
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError("the drawing's extent is beyond the float range")

    def pt(self, x: float, y: float) -> Tuple[float, float]:
        return ((x - self.x0) * self.k, (self.y1 - y) * self.k)

    def pts(self, xs: Iterable[float], ys: Iterable[float]) -> Tuple[List[float], List[float]]:
        """:meth:`pt` of every (xs[i], ys[i]), as the two coordinate lists."""
        x0, y1, k = self.x0, self.y1, self.k
        return [(x - x0) * k for x in xs], [(y1 - y) * k for y in ys]


def _open_svg(frame: _Frame, lines: List[str]) -> None:
    lines.append(
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}" '
        f'width="{_fmt(frame.width)}" height="{_fmt(frame.height)}">'
    )
    lines.append(
        f'<rect x="0" y="0" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" fill="#ffffff"/>'
    )


def _guide_positions(lo: float, hi: float, pitch: float) -> List[float]:
    """The distinct floats ``i * pitch``, i an integer, in [lo, hi],
    ascending; ``pitch`` is a power of two.  Far from the origin
    consecutive i round to one float, so each step jumps to the first i
    whose product is larger: the loop runs once per distinct position."""
    out = []
    i = int(lo / pitch) - 1
    while (v := i * pitch) <= hi:
        if v >= lo:
            out.append(v)
        i = max(i + 1, int(math.nextafter(v, math.inf) / pitch))
    return out


def _grid_lines(frame: _Frame, x0: float, y0: float, x1: float, y1: float,
                pitch: float, lines: List[str]) -> None:
    lines.append('<g stroke="#dddddd" stroke-width="1">')
    for x in _guide_positions(x0, x1, pitch):
        ax, ay = frame.pt(x, y0)
        bx, by = frame.pt(x, y1)
        lines.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}"/>')
    for y in _guide_positions(y0, y1, pitch):
        ax, ay = frame.pt(x0, y)
        bx, by = frame.pt(x1, y)
        lines.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}"/>')
    lines.append("</g>")


def _guide_pitch(span: float) -> float:
    pitch = 1.0
    while span / pitch > 20:
        pitch *= 2
    while span / pitch < 5 and pitch > 2 ** -40:
        pitch /= 2
    return pitch


def svg_for_instance(instance: DiskInstance, guides: bool = False) -> str:
    """Render a disk instance; colors follow disk tags, crosses mark points.

    Raises ``ValueError`` when the radius, a centre coordinate or a marked
    point is beyond the float range, or the frame around them is."""
    sc = instance.centers
    try:
        r = float(instance.radius)
        # int / int is correctly rounded, so this is float() of each
        # rational centre
        fx = [x / sc.den for x in sc.xs]
        fy = [y / sc.den for y in sc.ys]
        points = {k: (float(px), float(py)) for k, (px, py) in instance.points.items()}
    except OverflowError:
        for v in (instance.radius, *(Fraction(n, sc.den) for n in sc.xs + sc.ys),
                  *(c for pt in instance.points.values() for c in pt)):
            try:
                float(v)
            except OverflowError:
                raise ValueError(f"{v} is beyond the float range") from None
        raise
    # rounding is monotone, so the extremes of x ± r over all disks are
    # those of min(x) ± r and max(x) ± r
    xs = [c + s for c in (min(fx), max(fx)) for s in (-r, r)] if fx else []
    ys = [c + s for c in (min(fy), max(fy)) for s in (-r, r)] if fy else []
    for (px, py) in points.values():
        xs.append(px)
        ys.append(py)
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    frame = _Frame(min(xs), min(ys), max(xs), max(ys))
    out: List[str] = []
    _open_svg(frame, out)
    if guides and fx:
        span = max(max(xs) - min(xs), max(ys) - min(ys))
        _grid_lines(frame, min(xs), min(ys), max(xs), max(ys),
                    _guide_pitch(span), out)

    color_of: Dict[Tuple, str] = {}
    terminal = set(instance.meta.get("terminal_disks", []))
    radius = _fmt(r * frame.k)
    heavy = ' stroke="#000000" stroke-width="2.4"'
    out.append('<g stroke="#333333" stroke-width="0.6" fill-opacity="0.5">')
    for start, stop, tag, first in instance.tags.spans():
        # a tag's last component indexes disks inside one structure; the
        # rest, a run's prefix, identifies the structure itself
        head = tag if first is not None else tag[:-1]
        key = tuple(map(str, head)) if head else ("disk",)
        color = color_of.setdefault(key, _PALETTE[len(color_of) % len(_PALETTE)])
        cxs, cys = frame.pts(fx[start:stop], fy[start:stop])
        out.extend([
            f'<circle cx="{cx}" cy="{cy}" r="{radius}" '
            f'fill="{color}"{heavy if i in terminal else ""}/>'
            for i, cx, cy in zip(range(start, stop), _fmts(cxs), _fmts(cys))
        ])
    out.append("</g>")

    if instance.points:
        out.append('<g stroke="#cc0000" stroke-width="2">')
        for label in sorted(points):
            px, py = frame.pt(*points[label])
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


def svg_for_embedding(emb: GridEmbedding) -> str:
    """Render a straight-line grid drawing with unit guide lines and vertex
    labels."""
    coords = emb.coords
    xs = [float(x) for x, _ in coords.values()] or [0.0]
    ys = [float(y) for _, y in coords.values()] or [0.0]
    frame = _Frame(min(xs), min(ys), max(xs), max(ys))
    out: List[str] = []
    _open_svg(frame, out)
    _grid_lines(frame, min(xs), min(ys), max(xs), max(ys), 1.0, out)
    out.append('<g stroke="#4477aa" stroke-width="3">')
    for (u, v) in emb.graph.edges:
        ax, ay = frame.pt(*[float(c) for c in coords[u]])
        bx, by = frame.pt(*[float(c) for c in coords[v]])
        out.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}"/>')
    out.append("</g>")
    out.append('<g font-size="18" text-anchor="middle">')
    for v in emb.graph.vertices:
        cx, cy = frame.pt(*[float(c) for c in coords[v]])
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="6" fill="#222222"/>')
        out.append(f'<text x="{_fmt(cx)}" y="{_fmt(cy - 12)}" fill="#222222">{v}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
