"""Disk instances from rational disks, for tests.

Synthesizers and ``DiskInstance.from_dict`` produce integer centres
directly.  Tests describe small layouts with ``Fraction`` centres and turn
them into :class:`IntCenters` here, by the lcm that first defined the
integer form, which stays the oracle for the parse.
"""

import math

from disklab.arrangements import DiskInstance, IntCenters


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
