"""Independent raster oracle for disk-union topology, used only by tests.

Counts occupied components and bounded holes of a union of equal disks by
rasterizing onto a fine grid and labeling with scipy.  Robust only on
instances whose geometric features are fat relative to the grid step, which
the margin-filtered generator below guarantees: every pair of disks either
overlaps or stays apart by at least r/4, and every lens corner of a
pairwise-intersecting triple is at least r/8 deep inside or outside the
third disk.
"""

from fractions import Fraction
import math
import random

import numpy as np
from scipy import ndimage

from oracles import _sign_a_plus_b_sqrt_q, dist_sq

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
EIGHT_CONN = np.ones((3, 3), dtype=int)


def _rasterize(centers, r, extra_points=(), step=Fraction(1, 32)):
    """Occupancy grid covering all centers (and extra query points) with a
    2r margin; returns (occ, x_of_col0, y_of_row0, pitch)."""
    rf = float(r)
    sf = float(step * r)
    xs = [float(c[0]) for c in centers] + [float(p[0]) for p in extra_points]
    ys = [float(c[1]) for c in centers] + [float(p[1]) for p in extra_points]
    x0, x1 = min(xs) - 2 * rf, max(xs) + 2 * rf
    y0, y1 = min(ys) - 2 * rf, max(ys) + 2 * rf
    gx = np.arange(x0 + sf / 2, x1, sf)
    gy = np.arange(y0 + sf / 2, y1, sf)
    X, Y = np.meshgrid(gx, gy)
    occ = np.zeros(X.shape, dtype=bool)
    for c in centers:
        occ |= (X - float(c[0])) ** 2 + (Y - float(c[1])) ** 2 <= rf * rf
    return occ, gx[0], gy[0], sf


def flood_fill_summary(centers, r, step=Fraction(1, 32)):
    """(occupied_components, bounded_holes) by rasterization."""
    if not centers:
        return 0, 0
    occ, _, _, _ = _rasterize(centers, r, step=step)
    _, n_occ = ndimage.label(occ, structure=EIGHT_CONN)
    free_labels, n_free = ndimage.label(~occ, structure=FOUR_CONN)
    border = set(free_labels[0, :]) | set(free_labels[-1, :]) | \
        set(free_labels[:, 0]) | set(free_labels[:, -1])
    border.discard(0)
    holes = n_free - len(border)
    return n_occ, holes


def flood_fill_separated(centers, r, p, q, step=Fraction(1, 32)):
    """True iff p and q land in different 4-connected free components of the
    rasterized complement.  Callers must pass query points with clearance
    from the union; a covered query pixel raises."""
    occ, x0, y0, sf = _rasterize(centers, r, extra_points=(p, q), step=step)
    labels, _ = ndimage.label(~occ, structure=FOUR_CONN)

    def label_at(pt):
        ix = int(round((float(pt[0]) - x0) / sf))
        iy = int(round((float(pt[1]) - y0) / sf))
        lab = labels[iy, ix]
        if lab == 0:
            raise RuntimeError(f"query point {pt} rasterized as covered")
        return lab

    return label_at(p) != label_at(q)


# ---------------------------------------------------------------------------
# margin-filtered random instances
# ---------------------------------------------------------------------------

def _lens_corner_margins_ok(ca, cb, cc, r, mu):
    """Both corners of the (ca, cb) lens sit robustly inside or outside the
    disk at cc: | |corner - cc| - r | > mu, decided exactly.

    A lens corner is M +/- sqrt(q) * w for rational M, w, q, so each squared
    distance is (rational) + (rational) * sqrt(q) and both comparisons reduce
    to exact sign evaluations.
    """
    d2 = dist_sq(ca, cb)
    if d2 == 0:
        return False
    q = r * r / d2 - Fraction(1, 4)
    if q < 0:
        return True  # disks do not actually intersect; no corner exists
    mx = (ca[0] + cb[0]) / 2
    my = (ca[1] + cb[1]) / 2
    wx, wy = -(cb[1] - ca[1]), (cb[0] - ca[0])
    for sign in (1, -1):
        # corner = (mx, my) + sign*sqrt(q)*(wx, wy)
        ax = mx - cc[0]
        ay = my - cc[1]
        # |corner - cc|^2 = A + B sqrt(q)
        A = ax * ax + ay * ay + q * (wx * wx + wy * wy)
        B = 2 * sign * (ax * wx + ay * wy)
        for bound in ((r - mu) ** 2, (r + mu) ** 2):
            if _sign_a_plus_b_sqrt_q(A - bound, B, q) == 0:
                return False
        inside_lo = _sign_a_plus_b_sqrt_q(A - (r - mu) ** 2, B, q) < 0
        outside_hi = _sign_a_plus_b_sqrt_q(A - (r + mu) ** 2, B, q) > 0
        if not (inside_lo or outside_hi):
            return False
    return True


def robust_layout(centers, r) -> bool:
    """Whether ``centers`` has fat features (see module docstring): every
    pair overlaps or stays r/4 apart, and every lens corner of an
    intersecting triple sits r/8 inside or outside the third disk."""
    pair_lo = (2 * r - Fraction(r, 4)) ** 2
    pair_hi = (2 * r + Fraction(r, 4)) ** 2
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            d2 = dist_sq(centers[i], centers[j])
            if pair_lo < d2 < pair_hi or d2 == 4 * r * r:
                return False
    adj = [
        [j for j in range(len(centers))
         if j != i and dist_sq(centers[i], centers[j]) <= 4 * r * r]
        for i in range(len(centers))
    ]
    mu = Fraction(r, 8)
    for i in range(len(centers)):
        for j in adj[i]:
            if j < i:
                continue
            for k in set(adj[i]) & set(adj[j]):
                if k <= j:
                    continue
                for (a, b, c) in ((i, j, k), (i, k, j), (j, k, i)):
                    if not _lens_corner_margins_ok(
                        centers[a], centers[b], centers[c], r, mu
                    ):
                        return False
    return True


def random_robust_centers(rng: random.Random, n_lo=8, n_hi=26, attempts=400, span=36):
    """Random quarter-lattice disk centers with fat features (see module
    docstring).  Returns a list of Fraction pairs; raises if rejection
    sampling keeps failing.  ``span`` is the lattice extent in quarter
    units, so smaller spans pack the same disk count more densely."""
    for _ in range(attempts):
        n = rng.randint(n_lo, n_hi)
        centers = []
        seen = set()
        for _ in range(n):
            c = (Fraction(rng.randint(0, span), 4), Fraction(rng.randint(0, span), 4))
            if c not in seen:
                seen.add(c)
                centers.append(c)
        if centers and robust_layout(centers, Fraction(1)):
            return centers
    raise RuntimeError("rejection sampling failed to find a robust instance")


def random_robust_points(rng: random.Random, centers, r, count=2, span=36):
    """Distinct quarter-lattice query points at distance >= 9r/8 from every
    center: at least r/8 outside the union, so the exact checks and the
    raster both see them as free."""
    lim2 = (r + Fraction(r, 8)) ** 2
    pts = []
    for _ in range(8000):
        if len(pts) == count:
            return pts
        p = (
            Fraction(rng.randint(-8, span + 8), 4),
            Fraction(rng.randint(-8, span + 8), 4),
        )
        if p in pts:
            continue
        if all(dist_sq(p, c) > lim2 for c in centers):
            pts.append(p)
    raise RuntimeError("could not place robust query points")


def quarter(x):
    """The quarter-lattice value nearest to the float ``x``."""
    return Fraction(round(4 * x), 4)


def ring_centers(rng, cx, cy, rad, spacing=(1.1, 1.45), gap_prob=0.0):
    """Quarter-lattice centres of a ring of unit disks around (cx, cy),
    neighbours about ``spacing`` apart, each dropped with probability
    ``gap_prob``."""
    k = math.ceil(2 * math.pi * rad / rng.uniform(*spacing))
    phase = rng.uniform(0, 2 * math.pi)
    return [
        (cx + quarter(rad * math.cos(phase + 2 * math.pi * j / k)),
         cy + quarter(rad * math.sin(phase + 2 * math.pi * j / k)))
        for j in range(k) if rng.random() >= gap_prob
    ]


def random_robust_rings(rng: random.Random, attempts=400):
    """Unit-disk rings with fat features: either one or two rings side by
    side, or two nested rings, plus up to four stray disks.  Returns the
    centers and one robust free point in each bounded hole the rings are
    built to enclose (ring centres, and a point between nested rings)."""
    lim2 = Fraction(9, 8) ** 2
    for _ in range(attempts):
        centers, holes = [], []
        if rng.random() < 0.5:
            inner, outer = rng.choice([2, 2.5]), rng.choice([5, 5.5])
            cx, cy = quarter(rng.uniform(7, 8)), quarter(rng.uniform(7, 8))
            centers += ring_centers(rng, cx, cy, inner) + ring_centers(rng, cx, cy, outer)
            a, mid = rng.uniform(0, 2 * math.pi), (inner + outer) / 2
            holes += [(cx, cy), (cx + quarter(mid * math.cos(a)), cy + quarter(mid * math.sin(a)))]
        else:
            x = 0
            for _ in range(rng.randint(1, 2)):
                rad = rng.choice([2, 2.5, 3, 3.5])
                cx, cy = quarter(x + rad + 1), quarter(rng.uniform(rad + 1, 12 - rad))
                centers += ring_centers(rng, cx, cy, rad)
                holes.append((cx, cy))
                x += 2 * rad + 2 + rng.uniform(0.3, 1)
        for _ in range(rng.randint(0, 4)):
            centers.append((Fraction(rng.randint(0, 60), 4), Fraction(rng.randint(0, 60), 4)))
        if len(set(centers)) != len(centers):
            continue
        if not all(dist_sq(h, c) > lim2 for h in holes for c in centers):
            continue
        if robust_layout(centers, Fraction(1)):
            return centers, holes
    raise RuntimeError("rejection sampling failed to find a robust ring layout")
