"""Disk instances for tests.

Synthesizers and ``DiskInstance.from_dict`` produce integer centres
directly.  Tests describe small layouts with ``Fraction`` centres and turn
them into :class:`IntCenters` here, by the lcm that first defined the
integer form, which stays the oracle for the parse.  The weighted-edge
builder is a fourth synthesizer on disklab's one disk builder, kept for the
cut solvers' and the renderer's tests: no reduction produces it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from disklab.arrangements import DiskInstance, IntCenters
from disklab.gadgets import SynthesisError, _Disks, _lane_points


def int_centers(centers, r):
    """Rational centres as integer numerators over the lcm of the reduced
    denominators of ``r`` and of every coordinate."""
    den = math.lcm(r.denominator, *{c.denominator for p in centers for c in p})
    return IntCenters(
        tuple([x.numerator * (den // x.denominator) for x, _ in centers]),
        tuple([y.numerator * (den // y.denominator) for _, y in centers]),
        den,
    )


def disk_instance(radius, disks, points=None, params=None, meta=None):
    """The instance of the :class:`Disk` list ``disks``."""
    return DiskInstance(
        radius=radius,
        centers=int_centers([d.center for d in disks], radius),
        tags=[d.tag for d in disks],
        points=points,
        params=params,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# weighted multiterminal cut instances: two terminals, ``weight`` lanes
# ---------------------------------------------------------------------------

@dataclass
class CutArtifacts:
    instance: DiskInstance
    lane_ids: Dict[Tuple[int, int], List[int]]  # (edge id, copy) -> chain disk ids


def build_weighted_edge_instance(weight: int) -> CutArtifacts:
    """Two terminal disks joined by ``weight`` disjoint disk lanes.

    Weights become multiplicities: cutting the terminals apart requires one
    deletion per lane, and lanes only meet near the terminals where a
    deletion never helps (any surviving lane still reaches both ends), so
    the minimum cut is exactly the weight.
    """
    if weight < 1:
        raise SynthesisError("weight must be at least 1")
    r, span = Fraction(1, 10), 4.0    # disk radius, terminal centre distance
    rf = float(r)
    b = _Disks(r)
    b.single(("terminal", "u"), (0, 0))
    b.single(("terminal", "v"), (b.snapper.numerator(span), 0))
    lane_ids: Dict[Tuple[int, int], List[int]] = {}
    lane_pitch = 2.4 * rf
    bend = max(6 * rf, lane_pitch * weight / 1.5)
    if span < 2 * bend + 4 * rf:
        raise SynthesisError(
            f"span {span} too short to fan {weight} lanes; need > {2 * bend + 4 * rf:.2f}"
        )
    for j in range(weight):
        y = (j - (weight - 1) / 2.0) * lane_pitch
        ang = math.atan2(y, bend)
        sx, sy = 1.8 * rf * math.cos(ang), 1.8 * rf * math.sin(ang)
        way = [(sx, sy), (bend, y), (span - bend, y), (span - sx, sy)]
        tag = ("lane", 0, j)
        lane_ids[(0, j)] = b.chain(tag, _lane_points(way, rf), 0)
        b.allow(tag, ("terminal", "u"), 1, 1)
        b.allow(tag, ("terminal", "v"), 1, 1)
    # lanes may brush inside the end fans; extra contacts there never lower the
    # cut (a surviving lane still reaches both terminals on its own).  The
    # middle-zone disjointness that makes the cut *achievable* is checked
    # positionally below.
    for j in range(weight):
        for j2 in range(j + 1, weight):
            b.allow(("lane", 0, j), ("lane", 0, j2), 0, 10**9)
    meta = {"kind": "udmc", "terminal_disks": [0, 1], "weight": weight}
    inst, report = b.finish("cut", meta, points=None, params=None)
    # each lane alone must connect the terminals, and in the middle zone
    # (between the fans) lanes must be pairwise disjoint so that deleting one
    # mid-lane disk per lane really disconnects the ends
    udg = report.graph
    adj = [set(a) for a in udg.adj]
    for (eid, j), ids in lane_ids.items():
        if not (0 in adj[ids[0]] and 1 in adj[ids[-1]]):
            raise SynthesisError(f"lane {j} fails to reach both terminals")
    # every centre is a numerator over M
    mid_lo = b.snapper.numerator(bend + 2 * rf)
    mid_hi = b.snapper.numerator(span - bend - 2 * rf)
    xs = b.xs
    lane_of = {i: tag[2] for i, tag in enumerate(b.tags) if tag[0] == "lane"}
    for (i, j) in udg.edges:
        li, lj = lane_of.get(i), lane_of.get(j)
        if li is None or lj is None or li == lj:
            continue
        if mid_lo <= xs[i] <= mid_hi and mid_lo <= xs[j] <= mid_hi:
            raise SynthesisError(
                f"lanes {li} and {lj} touch in the middle zone; cut size would drift"
            )
    return CutArtifacts(instance=inst, lane_ids=lane_ids)
